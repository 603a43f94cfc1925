(** Order-certificate authority: [ORDER BY] elision.

    Like [Distinct_plan] and [Join_plan], this module sits above the
    engine and issues a certificate the executor trusts blindly:
    [Engine.Exec.Elided_sort] replaces the materializing sort with a
    pass-through when the stream's verified order (probed with
    {!Engine.Exec.order_stream} under the {e same} configuration the
    query will run with — certificates are not transferable across join
    or DISTINCT strategy changes) provably implies the requested
    [ORDER BY] keys. The proof is {!Od.Odset.covers} over the order
    dependencies and FDs of {!Od.Derive.of_query_spec}, translated
    between output and product attributes through the plan's top
    projection. Because [Operator.sort] is stable, a certified elision
    is {e list-equal} to the materializing baseline, not merely
    bag-equal. Merge joins are [Join_plan]'s certificates; this module
    only reads them, through the configuration's join plan.

    Costing uses {!Cost.sort} (the [n log2 n] the elision removes); the
    decision lands in the explain report's
    [order-strategy] section and as a [planner.order] trace node. *)

type choice = {
  impl : Engine.Exec.sort_impl;
  name : string;  (** ["elided-sort"], ["materialize-sort"], or ["none"] *)
  reason : string;
  od_covers : bool;
      (** the OD derivation proved the stream order implies the keys *)
  sort_keys : Schema.Attr.t list;  (** requested ORDER BY keys (output attrs) *)
  stream_order : Schema.Attr.t list;
      (** probed verified order of the stream feeding the sort *)
  est_sort_cost : float;
      (** {!Cost.sort} at the estimated output cardinality — what the
          materializing strategy pays and an elision removes *)
  join_impl : Engine.Exec.join_impl;
      (** [config]'s join plan, passed through unchanged (the default
          configuration's without one) *)
}

(** Is there an [ORDER BY] to plan? True only for a [Spec] with a
    nonempty [order_by]. *)
val applicable : Sql.Ast.query -> bool

(** Pick the sort strategy. [config] is the configuration the query will
    run under (typically carrying [Join_plan]'s join plan and
    [Distinct_plan]'s DISTINCT strategy, which shape the probed stream);
    stream provenance requires [database], without which the choice
    degrades to the materializing sort. The sort charge reads
    {!Cost.source}. Never raises: analysis failures degrade the same
    way. *)
val choose :
  ?trace:Trace.t ->
  ?database:Engine.Database.t ->
  ?config:Engine.Exec.config ->
  ?stats:Cost.table_stats ->
  Catalog.t ->
  Sql.Ast.query ->
  choice
