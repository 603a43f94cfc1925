(** The physical plan: one costed choice per query (paper §5).

    Expands views (the executor runs base tables only), then asks the
    three certificate authorities in the one order that keeps their
    certificates valid: {!Distinct_plan}, then {!Join_plan}, then
    {!Order_plan} probed under the configuration the first two produced
    — DISTINCT and join strategies change the order rows arrive in, and
    an order certificate holds only for the configuration it was probed
    under. [uniqsql run] executes the returned [config]; [uniqsql explain]
    narrates it. *)

type t = {
  query : Sql.Ast.query;  (** the view-expanded query the config runs *)
  config : Engine.Exec.config;  (** the three choices, with fresh stats *)
  distinct : Distinct_plan.choice;
  join : Join_plan.choice;  (** before merge certification *)
  order : Order_plan.choice;  (** its [join_impl] is the one that runs *)
}

(** Each trace receives its authority's decision node. [database]
    enables the order-provenance probes and supplies cardinalities;
    [stats] is the fallback without one. [logic] (default
    {!Sqlval.Logic_mode.default}) is the predicate logic the query runs
    under. Analyzer errors degrade each choice to its baseline.
    @raise Uniqueness.Views.Unsupported_view when a view cannot be
    merged into the query. *)
val plan :
  ?cache:Analysis_cache.t ->
  ?distinct_trace:Trace.t ->
  ?join_trace:Trace.t ->
  ?order_trace:Trace.t ->
  ?database:Engine.Database.t ->
  ?stats:Cost.table_stats ->
  ?logic:Sqlval.Logic_mode.t ->
  Catalog.t ->
  Sql.Ast.query ->
  t
