(** A database instance: catalog + one stored relation per table.

    Besides the rows themselves, each table remembers its {e verified
    physical order}: the column list passed to {!load_sorted}, checked
    against the data at load time. The streaming executor's duplicate
    elimination ({!Operator.unique}) trusts that rows sharing the ordered
    columns are adjacent, so order provenance starts here — an
    unverified claim of sortedness would silently drop or keep the wrong
    rows. {!load} and {!insert} reset the order to the empty list.

    Every row is checked against its table's arity once, when it enters;
    the same pass counts it, so {!row_count} and {!table} never walk the
    rows. *)

type t

val create : Catalog.t -> t
val catalog : t -> Catalog.t

(** Replace the contents of a table; forgets any recorded physical order.
    @raise Failure if the table is not in the catalog or arity mismatches. *)
val load : t -> string -> Relation.row list -> unit

(** [load_sorted t name rows ~order] replaces the contents of [name] and
    records [order] (column names, uppercased) as its physical order,
    after verifying that [rows] really are lexicographically nondecreasing
    on those columns under the null-comparison total order.
    @raise Failure on unknown table/column, arity mismatch, empty [order],
    or when the data contradicts the claimed order. *)
val load_sorted : t -> string -> Relation.row list -> order:string list -> unit

(** Insert a single row (no constraint checking — use {!validate}).
    Forgets any recorded physical order.
    @raise Failure if the table is not in the catalog or arity mismatches. *)
val insert : t -> string -> Relation.row -> unit

(** The verified physical order of a table: column names, outermost sort
    column first; [[]] when nothing is known. *)
val order : t -> string -> string list

(** The stored rows under the table's schema, returned as they are: every
    writer ({!load}, {!load_sorted}, {!insert}) checks arity when rows
    enter, so nothing is re-checked here.
    @raise Failure on an unknown table or a view. *)
val table : t -> string -> Relation.t

(** The number of stored rows, O(1): each writer keeps the count as it
    stores the rows. The planner's cost probes read only this. *)
val row_count : t -> string -> int

(** Constraint-violation report. *)
type violation =
  | Null_in_primary_key of string * Relation.row
  | Duplicate_key of string * string list * Relation.row
      (** table, key columns, offending row — uniqueness is judged with the
          null-comparison operator, so SQL2-style at most one all-null key *)
  | Check_failed of string * Sql.Ast.pred * Relation.row
  | Dangling_reference of string * string list * Relation.row
      (** table, FK columns, row whose (fully non-null) FK value has no
          parent in the referenced table *)

(** Validate every table against its primary/candidate keys and CHECK
    constraints (checks pass when not definitely false, per SQL). *)
val validate : t -> violation list

val pp_violation : Format.formatter -> violation -> unit
