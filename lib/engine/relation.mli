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

(** [compare_rows a b = 0] — the single row-equality notion every
    duplicate-elimination strategy shares (two nulls are equal, and
    [Int 1] equals [Float 1.0], as in [Value.compare_total]). *)
val equal_rows : row -> row -> bool

(** Hash consistent with {!equal_rows} (numerics hash through their float
    form so [Int 1] and [Float 1.0] collide on purpose). *)
val hash_row : row -> int

(** Hash table keyed by whole rows under {!equal_rows}/{!hash_row} — the
    shared state container of hash-based duplicate elimination. *)
module Row_tbl : Hashtbl.S with type key = row

(** [project idxs row] is the values of [row] at [idxs], in order — the
    one key format of hash joins, EXISTS indexes and key-constraint
    validation (and what hash aggregation hashes with {!hash_row}),
    looked up through {!Row_tbl} so key equality is {!equal_rows}: typed
    values, never their printed form. *)
val project : int array -> row -> row

(** Remove adjacent duplicates from a list sorted by {!compare_rows};
    [tick] counts one call per row-to-row comparison. *)
val dedup_sorted : ?tick:(unit -> unit) -> row list -> row list

(** Multiset equality: same rows with the same multiplicities. *)
val equal_bags : t -> t -> bool

(** Rows sorted; counts the comparisons through [tick] (one call per
    row-to-row comparison). *)
val sort_rows : ?tick:(unit -> unit) -> row list -> row list

(** Distinct count of rows (for duplicate statistics). *)
val distinct_count : t -> int

val pp : Format.formatter -> t -> unit

(** Render as an aligned text table (column headers + rows). *)
val to_text : t -> string
