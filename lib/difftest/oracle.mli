(** The executable oracles, each judging a {!Case.t} against the engine:

    - {e uniqueness}: an analyzer that claims [DISTINCT] is redundant
      (Theorem 1) must see [SELECT ALL] and [SELECT DISTINCT] agree as
      multisets on every generated instance;
    - {e rewrite}: every [Uniqueness.Rewrite] rule that applies must
      preserve bag semantics on every instance;
    - {e agreement}: an analyzer YES must be confirmed by the exact
      bounded-model checker ([Uniqueness.Exact]); when the exact checker
      gives up (unsupported shape, oversized search space) the symbolic
      oracle ({!Symbolic.Equiv}) decides instead, so analyzer claims on
      EXISTS-heavy or constant-rich queries no longer skip silently;
    - {e symbolic}: the symbolic oracle's own soundness contract —
      [Proved] must agree with the engine on every generated instance,
      [Refuted] must reproduce on its hinted instance, and whenever both
      the symbolic and the exact checker decide, they must coincide;
    - {e logic}: SQL's three-valued logic versus Libkin's two-valued
      collapse ([--logic 2vl]) — the two must agree on null-free
      instances (a theorem), and genuine divergences on nullable
      instances are catalogued as skips;
    - {e cache consistency}: the analysis cache is semantically
      invisible — direct, cache-miss, and cache-hit verdicts agree for
      every analyzer, and the rewrite pipeline produces identical results
      and traces (modulo [cache.hit] marker nodes) with and without a
      cache;
    - {e distinct}: operator agreement — every duplicate-elimination
      strategy (materializing sort, streaming hash, sort-aware
      streaming with its fallback) returns bag-equal results on every
      instance, and [Optimizer.Distinct_plan] picks the elided
      pass-through only when Algorithm 1 independently certifies YES;
    - {e join}: operator agreement — the streaming hash join (FROM
      order) and [Optimizer.Join_plan]'s cost-ordered plan return
      bag-equal results against the nested product-and-filter baseline
      on every instance, and every planned unique-build step carries a
      synthetic DISTINCT spec that Algorithm 1 independently certifies
      (the join mirror of the distinct elision rule);
    - {e order}: list-level operator agreement — with ORDER BY variants
      attached over the case's own select columns, the planner's chosen
      sort strategy (and its merge-certified join plan) and a
      deliberately blind all-merge join plan must be {e list-equal} to
      the materializing stable-sort baseline, and every
      [Optimizer.Order_plan] elision certificate is re-derived at the
      data level: the stream reaching the elided sort must itself arrive
      sorted on the requested keys;
    - {e plan}: the composed plan — [Optimizer.Physical.plan]'s
      configuration must return bag-equal results to the all-baseline
      one (sort DISTINCT, nested join, materializing sort) on the case
      query, its DISTINCT form and their ORDER BY variants, and an
      ordered form must arrive sorted on its keys.

    A [Fail] verdict is a soundness discrepancy; [Skip] records why an
    oracle did not apply (outside the analyzer's class, rewrite not
    applicable, exact check over budget). All details are deterministic
    functions of the case, so campaign reports replay bit-identically. *)

type verdict =
  | Pass
  | Skip of string
  | Fail of string

type finding = {
  oracle : string;  (** e.g. ["uniqueness/alg1"], ["rewrite/subquery_to_join"] *)
  verdict : verdict;
}

(** With [~cache], the oracles run their analyzers and rewrites through the
    given verdict cache (results must be unchanged — that invariant is what
    {!cache_consistency} checks, and a campaign with a cache must report
    bit-identically to one without). *)

val uniqueness : ?cache:Analysis_cache.t -> Case.t -> finding list
val rewrite : ?cache:Analysis_cache.t -> Case.t -> finding list
val agreement : ?max_cells:int -> ?cache:Analysis_cache.t -> Case.t -> finding list
val symbolic : ?max_cells:int -> ?cache:Analysis_cache.t -> Case.t -> finding list
val logic_agreement : Case.t -> finding list
val cache_consistency : Case.t -> finding list
val distinct_strategies : ?cache:Analysis_cache.t -> Case.t -> finding list
val join_strategies : ?cache:Analysis_cache.t -> Case.t -> finding list
val order_strategies : Case.t -> finding list
val plan_composition : ?cache:Analysis_cache.t -> Case.t -> finding list

(** The oracle group names accepted by [all ~only] (and the fuzzer's
    [--oracle] flag): ["uniqueness"], ["rewrite"], ["agreement"],
    ["symbolic"], ["logic"], ["cache"], ["distinct"], ["join"],
    ["order"], ["plan"]. *)
val group_names : string list

(** All oracles; [max_cells] bounds the exact checker (default
    [100_000]). [only] restricts to the named groups ([[]] = all);
    @raise Invalid_argument on an unknown group name. *)
val all :
  ?max_cells:int ->
  ?cache:Analysis_cache.t ->
  ?only:string list ->
  Case.t ->
  finding list

val failures : finding list -> finding list
val pp_finding : Format.formatter -> finding -> unit
