(** Random constraint-satisfying database instances, NULLs included.

    Rows are generated per table in catalog order (parents first — the
    schema generator numbers tables so that foreign keys point backwards)
    with rejection sampling against [CHECK] constraints and candidate-key
    uniqueness; foreign-key columns copy the key of a random parent row, or
    fall back to [NULL] (or drop the row) when the parent is empty. The
    result always satisfies [Engine.Database.validate] — property-tested in
    [test/test_difftest.ml]. *)

(** Rows for every table of the catalog, as [(table, rows)] in catalog
    order. [rows] bounds the row count per table (default 6). *)
val tables : rng:Random.State.t -> ?rows:int -> Catalog.t -> (string * Engine.Relation.row list) list

(** A value from the FLOAT pool: the integers 0..3 as floats (equal to
    INT values under [Value.compare_total]), 1234567.0 / 1234568.0,
    which differ but print alike under [%g], and the floats around
    2{^53}, beyond which consecutive integers are no longer floats. *)
val float_value : Random.State.t -> Sqlval.Value.t

(** Load generated rows into a fresh database. With [~ordered:true]
    (default [false]) every table is stably sorted on its first column
    and loaded through [Engine.Database.load_sorted], so the instance
    carries verified physical orders for the planners to exploit
    (sorted-unique DISTINCT, sort elision, merge joins). *)
val database :
  ?ordered:bool ->
  Catalog.t ->
  (string * Engine.Relation.row list) list ->
  Engine.Database.t

(** One [Value.Int] binding per host variable of the query. *)
val hosts : rng:Random.State.t -> Sql.Ast.query -> (string * Sqlval.Value.t) list
