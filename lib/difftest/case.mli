(** A differential test case: DDL + query + concrete instances, the triple
    the oracles judge and the shrinker minimizes.

    Cases serialize to s-expressions ([test/corpus/*.sexp]); DDL and the
    query are stored as SQL text (the pretty-printer round-trips through the
    parser), rows as value atoms. *)

type instance = {
  rows : (string * Engine.Relation.row list) list;
      (** per table, catalog order *)
  hosts : (string * Sqlval.Value.t) list;
}

type t = {
  ddl : Sql.Ast.create_table list;
  query : Sql.Ast.query;
  instances : instance list;
}

(** @raise Failure on DDL the catalog rejects. *)
val catalog : t -> Catalog.t

(** The database of the instance at position [index] (default 0) of
    the case. Even positions load every table sorted on its first column,
    with a verified physical order ({!Instance_gen.database}
    [~ordered:true]); odd positions keep generation order. *)
val database : ?index:int -> t -> instance -> Engine.Database.t

(** Random case: schema, query over it, [instances] constraint-satisfying
    databases with host bindings (defaults: 3 instances, ≤6 rows/table).
    [nested_or] (default 0.0) is the probability of drawing the query from
    {!Query_gen.nested_or_spec} — the budget-blowing OR-of-ANDs shape —
    instead of the general generator; at 0.0 the RNG stream is untouched,
    so existing seeded campaigns are byte-identical. *)
val generate :
  rng:Random.State.t ->
  ?instances:int ->
  ?rows:int ->
  ?nested_or:float ->
  unit ->
  t

val to_sexp : t -> Sexp.t

(** @raise Sexp.Parse_error / [Failure] / [Sql.Parser.Parse_error] on
    malformed input. *)
val of_sexp : Sexp.t -> t

val save : string -> t -> unit
val load : string -> t

val pp : Format.formatter -> t -> unit
