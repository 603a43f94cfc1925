(** Duplicate-elimination strategy choice.

    The engine deliberately cannot decide elision itself: picking
    [Stream_elided] requires an Algorithm 1 YES, and the uniqueness
    analyzers live {e above} the engine in the dependency order. This
    module is the certificate authority — it runs Algorithm 1 (Theorem 1)
    and hands the engine a [distinct_impl] it can trust blindly:
    + [Stream_elided] — Algorithm 1 proved the projection duplicate-free;
      the operator is a pass-through (zero state, zero comparisons);
    + [Stream_hash] otherwise — {!Engine.Operator.unique}, which reads the
      stream's own verified order prefix when it runs.

    With a database instance at hand the choice also narrates what
    [Stream_hash] will do there: it compiles the stream arriving at the
    DISTINCT ({!Engine.Exec.distinct_stream}) under the configuration the
    query runs with — the join order decides the arrival order — and asks
    the operator's own
    {!Engine.Operator.unique_path} how many columns the order covers and
    which path ([hash-unique], [prefix-unique] or [sorted-unique]) that
    selects — the same function that decides it at run time.

    With [~trace], the decision lands as a [planner.distinct] node whose
    facts name the strategy, the Algorithm 1 verdict and the order
    coverage. *)

type choice = {
  impl : Engine.Exec.distinct_impl;
  name : string;
      (** ["elided-unique"]; the {!Engine.Operator.unique_path} name
          (["hash-unique"] when no [~database] is given); or ["none"] when
          the query has no top-level DISTINCT *)
  reason : string;
  alg1_yes : bool;  (** Algorithm 1 certificate backing an elision *)
  covered : int;
      (** columns of the projection the stream's verified order prefix
          covers (only probed when a [~database] is supplied and
          Algorithm 1 said no; 0 otherwise) *)
}

(** Is there a top-level DISTINCT to plan? False for set operations (they
    deduplicate inside the merge), grouped queries (grouping already
    collapses duplicates of the keys), and SELECT ALL. *)
val applicable : Sql.Ast.query -> bool

(** Pick a strategy. [~database] only sharpens the narration — without an
    instance there is no verified physical order to consult — and
    [~config] (default {!Engine.Exec.default_config}) is the configuration
    the narrated stream is compiled under: pass the one the query will
    run with, or the narration may describe a path that does not run.
    Never raises on analyzer errors (unknown tables/columns degrade to the
    hash strategy). *)
val choose :
  ?cache:Analysis_cache.t ->
  ?trace:Trace.t ->
  ?database:Engine.Database.t ->
  ?config:Engine.Exec.config ->
  Catalog.t ->
  Sql.Ast.query ->
  choice
