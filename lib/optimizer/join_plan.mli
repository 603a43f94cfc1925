(** Join-order, unique-build and merge-join strategy choice.

    Like [Distinct_plan], this module is a certificate authority sitting
    above the engine: [Engine.Exec] runs a [Planned_join] order and its
    unique-build and merge flags blindly, so every [js_unique_build = true]
    must be backed by an independently derivable proof. The proof is Algorithm 1
    run on a synthetic [SELECT DISTINCT <build join columns> FROM <leaf>
    WHERE <pushed single-leaf conjuncts>] spec: an Algorithm 1 YES says
    the build side's join columns cover a derived candidate key of the
    filtered leaf, so each hash bucket holds exactly one row — the engine
    may store one flat row per key and early-exit every probe. The spec
    itself is carried in {!step.cert_spec} so auditors (the difftest
    [join] oracle) can re-derive the certificate without trusting this
    module.

    Ordering is a greedy enumeration over the flattened FROM-list leaves:
    every leaf is tried as the start of the probe pipeline, each partial
    order is extended with the cheapest next step under {!Cost.join_step},
    and the cheapest completed order wins. A step's cost is asymmetric,
    as the engine's hash join is: every row of the joined leaf (the build
    side) costs {!Cost.build_weight} probe rows, every row of the partial
    result (the probe side) one, so the smaller side is built. A step
    whose probe stream (ordered as its start leaf) and joined leaf are
    both stored in an order that follows the join keys — the one
    arrangement walk {!Engine.Exec.arrange_for_merge} over the leaves'
    verified stored orders ([~database]'s {!Engine.Database.order}) —
    is costed as a merge join ({!Cost.merge_step}, symmetric in its
    sides) and issued as one: this module is the only authority for
    [js_merge]. The engine re-runs the walk on verified operator orders
    before acting, so a stale flag degrades to a hash join, never to a
    wrong answer. Unique-build
    certificates feed the cost model — equality on a candidate key caps a
    step's output cardinality at the outer side instead of applying the
    blanket 0.1 selectivity — so key-covering joins are ordered first.

    The stream arrives in the order of the start leaf (joins keep the
    probe side's order, pushed filters the leaf's). With an [ORDER BY],
    an order is charged {!Cost.sort} at its estimated output cardinality
    unless it starts at a leaf whose stored order ([~database]'s
    {!Engine.Database.order}) begins with the ORDER BY keys and the query
    does not group. The charge only ranks orders: [Order_plan] alone
    certifies an elision.

    Ties go to the smaller build side (fewer build rows in total, for
    whole orders), then to the smallest leaf index, so the result is
    deterministic.

    With [~trace], the decision lands as a [planner.join] node (citing
    Theorem 1 when a step that runs as a hash join builds unique, with the
    sort charge when there is one) whose children describe each step: the
    leaf built and the pipeline probed, each with its estimated rows. *)

(** One join step of the chosen order. *)
type step = {
  leaf : int;  (** index into the FROM-order flattened leaves *)
  leaf_name : string;  (** correlation name of the leaf *)
  equis : int;  (** cross-leaf equality edges consumed by this step *)
  unique_build : bool;
  merge : bool;
      (** costed as, and certified for, a merge join ([js_merge]): the
          stored orders of the start leaf and of [leaf] follow the step's
          join keys *)
  cert_spec : Sql.Ast.query_spec option;
      (** the synthetic DISTINCT spec whose Algorithm 1 YES certifies
          [unique_build]; [Some _] iff [unique_build] *)
  build_rows : float;  (** estimated rows of [leaf], the side built *)
  probe_rows : float;
      (** estimated rows of the partial result probing it (the leaves
          joined so far) *)
  est : Cost.estimate;  (** running estimate {e after} this step *)
}

type choice = {
  impl : Engine.Exec.join_impl;
      (** [Planned_join] when a plan was produced, [Hash_join] otherwise;
          its steps carry each step's [unique_build] and [merge] flags *)
  name : string;
      (** ["cost-ordered"], ["from-order"] (analysis failed), or ["none"]
          (nothing to plan) *)
  reason : string;
  first : int;  (** leaf the probe pipeline starts from *)
  steps : step list;
  est_cost : float;  (** the chosen order's cost, [sort_charge] included *)
  sort_charge : float;
      (** {!Cost.sort} charged to the chosen order because its start leaf
          cannot deliver the ORDER BY; 0 without an ORDER BY or when it
          may be elided *)
  from_order_cost : float;
      (** the same cost model applied to FROM-clause order — the
          yardstick the [JOIN_SCALE] bench measures against *)
  unique_builds : int;
      (** steps with a unique-build certificate. The narration counts
          only those not costed as merge joins: a merge join builds
          nothing *)
  merge_joins : int;  (** steps certified for merge execution *)
}

(** Is there a join to plan? True only for a [Spec] with at least two
    FROM items. *)
val applicable : Sql.Ast.query -> bool

(** Pick a join order. Table cardinalities come from {!Cost.source};
    stored orders, and so merge joins, come only from [~database].
    Never raises: unresolvable references degrade to FROM-order hash joins
    with no unique builds. *)
val choose :
  ?cache:Analysis_cache.t ->
  ?trace:Trace.t ->
  ?database:Engine.Database.t ->
  ?stats:Cost.table_stats ->
  Catalog.t ->
  Sql.Ast.query ->
  choice
