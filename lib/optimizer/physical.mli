(** The physical plan: the one optimizer entry point (paper §5).

    Expands views (the executor runs base tables only), lets
    {!Planner.choose} pick among the query and its uniqueness rewrites,
    then asks the three certificate authorities about the pick in the one
    order that keeps their certificates valid: {!Join_plan}, then
    {!Distinct_plan} narrating the stream that join order delivers, then
    {!Order_plan} probed under the configuration the first two produced —
    they change the order rows arrive in. EXISTS
    runs indexed ([Engine.Exec] falls back to the nested loop without an
    equality correlation). [uniqsql run] and [explain --run] execute
    [query] under [config]; [explain] narrates it. *)

type t = {
  strategy : Planner.strategy;  (** the planner's pick among the rewrites *)
  query : Sql.Ast.query;  (** [strategy.query]: the query [config] runs *)
  config : Engine.Exec.config;  (** the authorities' choices, with fresh stats *)
  distinct : Distinct_plan.choice;
  join : Join_plan.choice;  (** before merge certification *)
  order : Order_plan.choice;  (** its [join_impl] is the one that runs *)
}

(** Each trace receives its decision nodes. The planner and the three
    authorities read one cardinality source: [database]'s row counts,
    else [stats], else 1000 per table; [database] also enables the
    order-provenance probes. [logic] (default {!Sqlval.Logic_mode.default})
    is the predicate logic the query runs under. Analyzer errors degrade
    each authority's choice to its baseline.
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
  ?logic:Sqlval.Logic_mode.t ->
  Catalog.t ->
  Sql.Ast.query ->
  t
