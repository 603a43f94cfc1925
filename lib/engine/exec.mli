(** Plan compiler and executor with SQL 3VL multiset semantics.

    Plans compile to pull-based {!Operator} pipelines. Scans, filters,
    projections, products, hash joins, and DISTINCT set operations stream
    (a join's build side and a set operation's right side are drained on
    the first pull, never at compile time); aggregation and ALL set
    operations are blocking and run behind deferred sources. Aggregation
    is one pass of hash grouping with running accumulators: NULL keys
    form one group, groups are emitted in first-seen order, and the
    output claims no order. Compiling a
    plan therefore never executes it — the planner compiles purely to
    inspect order provenance ({!distinct_stream}).

    Duplicate elimination comes in three flavors: the materializing
    [Sort_distinct], kept as the ablation baseline (the 1994-era default
    whose sort is the cost the paper's optimization removes), and two
    streaming ones forming the paper's cost spectrum: [Stream_hash], whose
    state shrinks as the stream's verified order covers more of the
    projection, and [Stream_elided].
    [EXISTS] subqueries run as correlated nested loops with early exit,
    resolving free column references against enclosing query blocks
    (innermost first).

    Every predicate, EXISTS body and projection is compiled once, when
    the plan is compiled ({!Logic.Eval.compile_pred}): column references
    become row positions, so evaluating a row does no name lookup. A
    reference that cannot be resolved — an unknown or ambiguous column, an
    unbound host — compiles to an accessor that raises
    {!Unbound_column}, [Failure] or {!Unbound_host} when a row is
    evaluated, so compiling stays pure. *)

type distinct_impl =
  | Sort_distinct
      (** materialize, O(n log n) sort, adjacent-duplicate removal *)
  | Stream_hash
      (** streaming {!Operator.unique}: hashes only the columns the
          stream's verified order prefix leaves unordered, clearing its
          table at each new run of the prefix — O(distinct rows) state
          with no order, one row when the order covers the projection *)
  | Stream_elided
      (** {!Operator.elided_unique}: a pass-through standing where the
          DISTINCT used to be. The engine does NOT re-check the
          duplicate-free claim — select this only with an Algorithm 1 YES
          certificate in hand (see [Optimizer.Distinct_plan]). *)

type exists_impl =
  | Naive_exists
      (** correlated nested loop with early exit — the 1994-era execution
          the paper's rewrites compete against (default) *)
  | Indexed_exists
      (** single-table subqueries with equi-correlation build a hash index
          on the correlated columns once and probe per outer row — what an
          engine with an index on the correlation key does *)

(** One step of a planner-chosen join order: which FROM-list leaf joins
    next, and whether its build side may run in unique mode (one flat row
    per key, early-exit probes) — legal only when the leaf's join columns
    cover a derived candidate key. *)
type join_step = {
  js_leaf : int;  (** index into the FROM-order flattened product leaves *)
  js_unique_build : bool;
      (** certificate that the build join columns cover a candidate key of
          the (filtered) leaf; the engine does NOT re-check it — provide
          only with an Algorithm 1 / FD-closure YES in hand (see
          [Optimizer.Join_plan]) *)
  js_merge : bool;
      (** certificate that both inputs' verified stream orders cover the
          step's join keys pairwise, so the streaming {!Operator.merge_join}
          is legal. The engine re-derives only the key arrangement
          ({!arrange_for_merge}) and
          falls back to a hash join when none exists; the soundness of the
          ordering claim itself is the planner's (see
          [Optimizer.Join_plan], which issues it for the steps it costs
          as merge joins). Takes precedence over [js_unique_build]. *)
}

type join_order = {
  jo_first : int;  (** leaf the probe pipeline starts from *)
  jo_steps : join_step list;
      (** remaining leaves in join order; together with [jo_first] this
          must be a permutation of [0 .. n-1] over the n product leaves,
          else the engine falls back to FROM order *)
}

type join_impl =
  | Nested_join
      (** filter over the block-nested product stream — the ablation
          baseline every other implementation must bag-equal *)
  | Hash_join
      (** streaming hash joins in FROM-clause order with single-leaf
          conjunct pushdown (default) *)
  | Planned_join of join_order
      (** streaming hash joins in the planner-chosen order, with
          unique-build certificates per step *)

(** [withdraw ~unique_builds ~merges impl] is [impl] with the named
    certificates cleared on every step of a [Planned_join]: the same join
    order, run without trusting them. Each flag defaults to [false] (the
    certificate is kept); other implementations are returned unchanged. *)
val withdraw : ?unique_builds:bool -> ?merges:bool -> join_impl -> join_impl

(** How a plan's [Sort] node (an [ORDER BY]) executes. *)
type sort_impl =
  | Materialize_sort
      (** {!Operator.sort}: drain, then sort only the distinct keys when
          there are at most n/4 of them, else stable-sort the rows
          (default) *)
  | Elided_sort
      (** pass-through standing where the sort used to be. The engine does
          NOT re-check the ordering claim — select this only with an
          [Optimizer.Order_plan] certificate in hand (stream provenance +
          order dependencies prove the stream already sorted). Counted in
          {!Stats.t.sort_elisions}. *)

type config = {
  distinct_impl : distinct_impl;
  join_impl : join_impl;
      (** how [Select] over a product executes; see {!join_impl} *)
  sort_impl : sort_impl;
      (** how [Sort] nodes execute; see {!sort_impl} *)
  exists_impl : exists_impl;
  logic : Sqlval.Logic_mode.t;
      (** null semantics of predicate atoms: [L3] (SQL, default) or [L2]
          (Libkin two-valued — atoms over NULL are plain false); applies to
          every predicate evaluation in the plan, EXISTS subqueries
          included. Duplicate elimination is unaffected (it always uses the
          null-comparison total order). *)
  stats : Stats.t;
}

val default_config : unit -> config

exception Unbound_column of Schema.Attr.t
exception Unbound_host of string

(** Compile a plan to an operator pipeline without running it. [hosts]
    binds host variables ([:NAME], uppercase names); unbound hosts only
    raise once a row referencing them is pulled. *)
val compile :
  ?config:config ->
  Database.t ->
  hosts:(string * Sqlval.Value.t) list ->
  Relalg.Plan.t ->
  Operator.t

(** Compile and drain. *)
val run :
  ?config:config ->
  Database.t ->
  hosts:(string * Sqlval.Value.t) list ->
  Relalg.Plan.t ->
  Relation.t

(** Translate a query against the database's catalog and run it. *)
val run_query :
  ?config:config ->
  Database.t ->
  hosts:(string * Sqlval.Value.t) list ->
  Sql.Ast.query ->
  Relation.t

(** Parse, translate and run. *)
val run_sql :
  ?config:config ->
  Database.t ->
  hosts:(string * Sqlval.Value.t) list ->
  string ->
  Relation.t

(** {1 Planner probes}

    Used by the [Optimizer] certificate authorities to inspect streams
    before running anything. *)

(** Schema and verified order of the stream that would arrive at the
    query's top-level DISTINCT, or [None] when the query does not plan to a
    DISTINCT projection (aggregates, set operations, SELECT ALL). Pure:
    compiles but never executes. As for {!order_stream}, [config] must be
    the configuration the query will run under (its join order decides
    the arrival order), passed with fresh [stats]. *)
val distinct_stream :
  ?config:config ->
  Database.t ->
  Sql.Ast.query ->
  (Schema.Relschema.t * Schema.Attr.t list) option

(** Requested sort keys, schema, and verified order of the stream feeding
    the query's [ORDER BY], or [None] when the query has no [Sort] node.
    Pure: compiles but never executes. [config] must match the
    configuration the query will actually run under — join strategy and
    DISTINCT implementation both change the stream's arrival order, and an
    elision certificate issued against one configuration is not
    transferable to another (pass a copy with fresh [stats]: compiling
    narrates strategy choices into the config's stats). *)
val order_stream :
  ?config:config ->
  Database.t ->
  Sql.Ast.query ->
  (Schema.Attr.t list * Schema.Relschema.t * Schema.Attr.t list) option

(** [arrange_for_merge probe_order build_order equis] orders the
    (probe attribute, build attribute) equalities so that pair i sits at
    position i of both verified orders — the key arrangement a merge join
    compares lexicographically — or [None] when no arrangement follows
    both order prefixes. The engine runs it before trusting a [js_merge]
    flag; [Optimizer.Join_plan] runs it before issuing one. *)
val arrange_for_merge :
  Schema.Attr.t list ->
  Schema.Attr.t list ->
  (Schema.Attr.t * Schema.Attr.t) list ->
  (Schema.Attr.t * Schema.Attr.t) list option
