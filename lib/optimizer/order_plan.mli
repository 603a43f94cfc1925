(** Order-certificate authority: [ORDER BY] elision and merge-join
    certification.

    Like [Distinct_plan] and [Join_plan], this module sits above the
    engine and issues certificates the executor trusts blindly:

    - {b sort elision} — [Engine.Exec.Elided_sort] replaces the
      materializing sort with a pass-through when the stream's verified
      order (probed with {!Engine.Exec.order_stream} under the {e same}
      configuration the query will run with — certificates are not
      transferable across join or DISTINCT strategy changes) provably
      implies the requested [ORDER BY] keys. The proof is
      {!Od.Odset.covers} over the order dependencies and FDs of
      {!Od.Derive.of_query_spec}, translated between output and product
      attributes through the plan's top projection. Because
      [Operator.sort] is stable, a certified elision is {e list-equal}
      to the materializing baseline, not merely bag-equal.
    - {b merge joins} — a join step whose cross-leaf equality edges can
      be arranged to follow both inputs' verified order prefixes is
      flagged [js_merge]: the streaming [Operator.merge_join] replaces
      the hash build. Both this module and the engine run the one
      arrangement walk, {!Engine.Exec.arrange_for_merge}; the engine
      re-runs it on verified operator orders before acting, so a stale
      flag degrades to a hash join, never to a wrong answer.

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
      (** the (possibly upgraded) join plan: input plan with [js_merge]
          set on every order-covered step; unchanged when nothing
          certified *)
  merge_joins : int;  (** join steps certified for merge execution *)
}

(** The verified physical order of each FROM leaf, qualified with its
    correlation name as the executor's scan does; [[]] for a view or a
    table with no recorded order. *)
val leaf_orders :
  Engine.Database.t -> Catalog.t -> Sql.Ast.query_spec -> Schema.Attr.t list array

(** Is there an [ORDER BY] to plan? True only for a [Spec] with a
    nonempty [order_by]. Merge-join certification runs regardless —
    {!choose} upgrades join plans even for unsorted queries. *)
val applicable : Sql.Ast.query -> bool

(** Pick the sort strategy and certify merge joins. [config] is the
    configuration the query will run under (its [join_impl] is the plan
    to upgrade, typically [Join_plan]'s; its other fields shape the
    probed stream); stream provenance requires [database], without which
    the choice degrades to the materializing sort and an unchanged join
    plan. Never raises: analysis failures degrade the same way. *)
val choose :
  ?trace:Trace.t ->
  ?database:Engine.Database.t ->
  ?config:Engine.Exec.config ->
  ?stats:Cost.table_stats ->
  Catalog.t ->
  Sql.Ast.query ->
  choice
