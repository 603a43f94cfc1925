(** Derived order dependencies for a query specification, mirroring
    {!Fd.Derive} one dependency class up.

    From a catalog and a [SELECT ... FROM R, S WHERE ...] we collect,
    over the attributes of the extended Cartesian product:

    - {e key-order} dependencies — the FD→OD interaction: each declared
      candidate key, read as a prefix order, determines the occurrence's
      full column order (a key tie group holds at most one row);
    - {e equality-derived} dependencies from the selection predicate's
      singleton CNF conjuncts: [v = c] makes [v] trivially sorted
      ([[] |-> [v]]) and [v1 = v2] makes each column sorted whenever the
      other is;
    - the functional dependencies of {!Fd.Derive.of_query_spec}, powering
      the walk's constant-within-tie-group skips;
    - an equality canonicalizer collapsing WHERE-equated columns into one
      representative (the {e Replace} axiom).

    Selections preserve these verbatim; projections, products and joins
    are handled where stream provenance lives — the executor's verified
    [Operator.order] — with [Optimizer.Order_plan] translating between
    output and product attributes. *)

type source = {
  src_ods : Odset.t;                     (** ODs over the product attributes *)
  src_fds : Fd.Fdset.t;                  (** from {!Fd.Derive.of_query_spec} *)
  src_canon : Schema.Attr.t -> Schema.Attr.t;
      (** equality-class representative,
          {!Logic.Equalities.Classes.representative} (identity when
          unequated) *)
}

(** Collect the derived order dependencies of a query specification. With
    [~trace], every OD emits a provenance node — [od.key-order] for the
    FD→OD interaction, [od.equality-order] for predicate equalities.
    @raise Fd.Derive.Unknown_table
    @raise Fd.Derive.Unknown_column like {!Fd.Derive.of_query_spec}. *)
val of_query_spec : ?trace:Trace.t -> Catalog.t -> Sql.Ast.query_spec -> source

(** One-shot {!Odset.covers} under the spec's derived dependencies: does a
    stream verifiably sorted on [stream] satisfy [ORDER BY keys]? All
    attribute lists are over the product schema. *)
val covers :
  ?trace:Trace.t ->
  Catalog.t ->
  Sql.Ast.query_spec ->
  stream:Schema.Attr.t list ->
  Schema.Attr.t list ->
  bool
