(** In-memory relations: a schema plus a bag (multiset) of rows.

    Rows are value arrays positionally aligned with the schema. All
    duplicate-related operations use the null-comparison total order
    ([Value.compare_total]), matching [DISTINCT] / set-operation
    semantics where two nulls are equivalent. *)

type row = Sqlval.Value.t array

type t = {
  schema : Schema.Relschema.t;
  rows : row list;
}

val make : Schema.Relschema.t -> row list -> t
val cardinality : t -> int

(** Lexicographic total order on rows (null-comparison per column). *)
val compare_rows : row -> row -> int

(** [compare_at ka a kb b]: the same order on [a]'s values at positions
    [ka] against [b]'s at the parallel positions [kb]. *)
val compare_at : int array -> row -> int array -> row -> int

(** [compare_rows a b = 0] — the single row-equality notion every
    duplicate-elimination strategy shares (two nulls are equal, and
    [Int 1] equals [Float 1.0], as in [Value.compare_total]). *)
val equal_rows : row -> row -> bool

(** Whether [row] holds NULL at any of the positions — a key that
    WHERE-equality can match to nothing. *)
val has_null_at : int array -> row -> bool

(** The one keyed hash table: every hash join, semi-join, EXISTS index,
    hash DISTINCT, hash aggregation and key-constraint check goes through
    it. A table is created over key positions and numbers the distinct
    keys it is given 0, 1, … in first-seen order. Keys are compared
    with {!equal_rows} semantics (per-column [Value.compare_total]: NULL
    equals NULL, [Int 1] equals [Float 1.0]) and hashed consistently with
    it (an integral [Float] hashes as the [Int] of its value). They are
    read at their positions in the stored row, so no key is ever
    projected into an array of its own. *)
module Keyed : sig
  type t

  (** An empty table keyed on the given column positions. *)
  val create : int array -> t

  (** The number of distinct keys added so far. *)
  val count : t -> int

  (** The id of [row]'s key, adding the key (and keeping [row] as its
      first row) with id [count t] when it is new. *)
  val find_or_add : t -> row -> int

  (** Remove every key, keeping the capacity: ids restart at 0. Costs the
      number of keys held, not the capacity. *)
  val clear : t -> unit

  (** [find t probe_key probe] is the id of the key [probe] holds at
      positions [probe_key] (parallel to the table's key positions), or
      [-1] when no stored key equals it. *)
  val find : t -> int array -> row -> int

  (** The first row added with key id [id]. *)
  val first : t -> int -> row

  (** [number ~limit key rows] is [Some (t, ids)], where [t] numbers the
      keys of [rows] at [key] and [ids.(r)] is the id of [rows.(r)]'s key;
      [None] as soon as more than [limit] distinct keys appear. *)
  val number : limit:int -> int array -> row array -> (t * int array) option

  (** [layout count buckets rows n] is the counting sort of the first [n]
      [rows] by [buckets.(r)] (each in [0, count)): [(starts, laid_out)]
      where the rows of bucket [b] are
      [laid_out.(starts.(b)) .. laid_out.(starts.(b+1) - 1)], in the order
      they arrived. *)
  val layout : int -> int array -> row array -> int -> int array * row array

  (** Rows grouped by key in one flat array: the rows of key id [i] are
      [rows.(starts.(i)) .. rows.(starts.(i+1) - 1)], in the order they
      arrived. *)
  type groups = { ids : t; starts : int array; rows : row array }

  (** [group key feed] groups the rows [feed] passes to its argument by
      their values at [key] ({!layout} with key ids as buckets). *)
  val group : int array -> ((row -> unit) -> unit) -> groups
end

(** Remove adjacent duplicates from a list sorted by {!compare_rows};
    [tick] counts one call per row-to-row comparison. *)
val dedup_sorted : ?tick:(unit -> unit) -> row list -> row list

(** Multiset equality: same rows with the same multiplicities. *)
val equal_bags : t -> t -> bool

(** Stable-sorts the array in place by {!compare_rows}, or on the values
    at positions [key] only; counts the comparisons through [tick] (one
    call per row-to-row comparison). *)
val sort_rows : ?tick:(unit -> unit) -> ?key:int array -> row array -> unit

(** Distinct count of rows (for duplicate statistics). *)
val distinct_count : t -> int

val pp : Format.formatter -> t -> unit

(** Render as an aligned text table (column headers + rows). *)
val to_text : t -> string
