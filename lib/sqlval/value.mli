(** SQL values, including [NULL].

    Two distinct notions of equality coexist in SQL2 and both matter to the
    paper:

    - {e WHERE-clause equality} ({!eq3} and friends): comparing anything with
      [NULL] yields {!Truth.Unknown};
    - {e null-comparison} [X ≐ Y] ({!equal_null}): used by [DISTINCT],
      [GROUP BY], [ORDER BY], set operations, and uniqueness constraints —
      two nulls are considered equivalent
      ([(X IS NULL AND Y IS NULL) OR X = Y]). *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

val is_null : t -> bool

(** Structural equality: [Null] equals [Null]. Same as {!equal_null}. *)
val equal : t -> t -> bool

(** The paper's null-comparison operator [X ≐ Y]. *)
val equal_null : t -> t -> bool

(** Total order for sorting and duplicate elimination: [Null] sorts first and
    equals itself; [Int] and [Float] compare by exact numeric value (so
    [Int 1] equals [Float 1.0], and [Int (2{^53} + 1)] is above
    [Float 2{^53}]); other values of distinct types are ordered by type
    tag. *)
val compare_total : t -> t -> int

(** {1 Three-valued comparisons (WHERE-clause semantics)} *)

val eq3 : t -> t -> Truth.t
val ne3 : t -> t -> Truth.t
val lt3 : t -> t -> Truth.t
val le3 : t -> t -> Truth.t
val gt3 : t -> t -> Truth.t
val ge3 : t -> t -> Truth.t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit

(** SQL literal syntax: strings quoted, [NULL] uppercase. Floats read
    back exactly and as floats: integral ones below 10{^15} print with a
    [.0] ([1234567.0]), others at the shortest [%g] precision (6 or more
    digits) that reads back as the same value. *)
val to_string : t -> string

(** Type name used in error messages ("int", "string", ...). *)
val type_name : t -> string

(** Parse a value from a bare atom, the shared reader of
    [uniqsql --set NAME=VALUE] bindings and the difftest corpus:
    [NULL] / [TRUE] / [FALSE] case-insensitively, then integer, float,
    quoted SQL string (['it''s'] undoubles), and finally a bare string.
    Inverse of {!to_string} except that bare strings parse unquoted. *)
val of_sql_atom : string -> t
