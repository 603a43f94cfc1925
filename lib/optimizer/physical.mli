(** The physical plan: the one optimizer entry point (paper §5).

    Expands views (the executor runs base tables only), lets
    {!Planner.choose} pick among the query and its uniqueness rewrites,
    then asks the three certificate authorities about the pick in the one
    order that keeps their certificates valid, composing one
    configuration: {!Join_plan} (join order, unique builds, merge joins),
    then {!Distinct_plan} narrating the stream that join plan delivers,
    then {!Order_plan} probed under the configuration the first two
    produced — they change the order rows arrive in. EXISTS
    runs indexed ([Engine.Exec] falls back to the nested loop without an
    equality correlation). [uniqsql run] and [explain --run] execute
    [query] under [config]; [explain] narrates it. *)

type t = {
  strategy : Planner.strategy;  (** the planner's pick among the rewrites *)
  query : Sql.Ast.query;  (** [strategy.query]: the query [config] runs *)
  config : Engine.Exec.config;  (** the authorities' choices, with fresh stats *)
  distinct : Distinct_plan.choice;
  join : Join_plan.choice;  (** its [impl] is the join plan that runs *)
  order : Order_plan.choice;
}

(** Each trace receives its decision nodes. The planner and the three
    authorities read one cardinality source, {!Cost.source}; [database]
    also enables the stored-order and order-provenance probes. The query
    runs under SQL's three-valued logic: a two-valued query is planned
    on its {!two_valued} translation. Analyzer errors
    degrade each authority's choice to its baseline.
    @raise Uniqueness.Views.Unsupported_view when a view cannot be
    merged into the query. *)
val plan :
  ?cache:Analysis_cache.t ->
  ?planner_trace:Trace.t ->
  ?distinct_trace:Trace.t ->
  ?join_trace:Trace.t ->
  ?order_trace:Trace.t ->
  ?database:Engine.Database.t ->
  ?stats:Cost.table_stats ->
  Catalog.t ->
  Sql.Ast.query ->
  t

(** [two_valued cat q] is the three-valued query that selects the rows
    [q] selects under two-valued logic: {!Logic.Two_valued.query} over
    [q]'s view expansion ({!Uniqueness.Views.expand_query}), since a
    view's predicates merge into the query only on expansion.
    @raise Uniqueness.Views.Unsupported_view as {!plan} does. *)
val two_valued : Catalog.t -> Sql.Ast.query -> Sql.Ast.query
