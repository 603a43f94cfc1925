(** [uniqsql explain]: one provenance-carrying report per query.

    Composes the decision traces of every analysis layer — Algorithm 1, the
    FD-closure analyzer, the rewrite suite, the cost-based planner — and
    (optionally) the execution counters of {!Engine.Stats} into a single
    report, rendered either as a human-readable tree ({!pp}) or as JSON
    ({!to_json}, consumed by the benchmark harness and the snapshot tests).

    Tracing is only ever enabled inside this module; the analyzers
    themselves run traced here and untraced everywhere else, so building a
    report never changes a verdict (property-tested in
    [test/test_trace.ml]). *)

(** One titled group of decision nodes (one per analysis layer). *)
type section = {
  title : string;
      (** ["algorithm1"], ["fd-closure"], ["rewrites"], ["planner"], and
          ["cache"] when a cache was supplied *)
  nodes : Trace.node list;
}

(** Execution counters of the one plan that ran. *)
type execution = {
  rows : int;                  (** result cardinality *)
  counters : (string * int) list;  (** {!Engine.Stats.fields} *)
}

type report = {
  query : Sql.Ast.query;       (** the query as written *)
  sections : section list;     (** decision traces, one per layer *)
  rewritten : Sql.Ast.query;   (** after [Rewrite.apply_all] *)
  chosen : Optimizer.Planner.strategy option;
      (** the planner's pick, the query that runs; [None] when a view
          cannot be merged and there is no plan *)
  execution : execution option; (** [None] unless [~database] was given *)
}

(** Build the full report.

    [stats] is the table-cardinality callback (default: 1000 rows per
    table); with [~database] its row counts replace it. The planner,
    distinct, join and order sections narrate one
    {!Optimizer.Physical.plan} — the plan [uniqsql run] executes — and
    the planner section keeps every candidate's cost, the as-written
    form's included. With [~database], that plan's query runs once and
    its {!Engine.Stats} counters are folded into the report; [hosts]
    binds host variables for that run. A query whose views cannot be
    merged has no physical plan: a [physical.skipped] node says why, and
    nothing runs.

    With [~cache], every uniqueness verdict goes through the
    {!Analysis_cache}: hits add [cache.hit] marker nodes to the analysis
    sections and an extra ["cache"] section reports the hit/miss/eviction
    counters. Verdicts, rewrites, and
    the chosen strategy are unchanged by caching.

    With [~latency], a ["latency"] section renders the given per-class
    histogram summaries (the serve front end passes its p50/p95/p99
    request-latency data; see {!latency_section}). *)
val explain :
  ?stats:Optimizer.Cost.table_stats ->
  ?database:Engine.Database.t ->
  ?hosts:(string * Sqlval.Value.t) list ->
  ?cache:Analysis_cache.t ->
  ?latency:(string * Engine.Histogram.summary) list ->
  Catalog.t ->
  Sql.Ast.query ->
  report

(** A ["latency"] section: one node per request class carrying the
    count/mean/p50/p95/p99/max facts (microseconds) of an
    {!Engine.Histogram.summary}. [uniqsql serve]'s [stats] command renders
    exactly this section, so the two surfaces read identically. *)
val latency_section : (string * Engine.Histogram.summary) list -> section

(** Human-readable tree rendering (deterministic; snapshot-tested). *)
val pp : Format.formatter -> report -> unit

(** Machine-readable JSON rendering (deterministic; round-trips the same
    information as {!pp}). *)
val to_json : report -> Trace.Json.t
