(** The process-global closure memo and the one saturation engine.

    {!Fd.Fdset.closure}, {!Logic.Equalities.closure} and the order
    dependencies all compute their closures with {!saturate}, through
    {!Dependency_closure}. Untraced closures consult this memo when it is
    enabled: a closure already computed for the same (seed, dependencies)
    pair is returned without running the saturation at all. The memo is
    keyed on interned bitset serializations ({!closure_key}), LRU-bounded,
    and {e off by default} — analyses are bit-for-bit identical with it on
    or off (fuzz-tested), it only skips recomputation.

    Concurrency: worker domains touch the memo only inside an {!epoch}.
    Outside one, a single domain runs and the table is a plain {!Lru}.

    Use {!with_enabled} to scope the toggle; the batch/serve CLI modes and
    the [ANALYSIS_CACHE] benchmark enable it for their whole run. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** [with_enabled b f] — run [f] with the memo toggled to [b], restoring
    the previous state afterwards (exception-safe). *)
val with_enabled : bool -> (unit -> 'a) -> 'a

(** Drop all memoized closures (e.g. between benchmark passes). *)
val clear : unit -> unit

(** Hit/miss/eviction counters of the memo table. *)
val counters : unit -> Lru.counters

(** [epoch ?merge f] — run [f] (typically one [Parallel.Pool.map] batch)
    with the memo frozen: lookups peek the table, new closures accumulate
    in per-domain deltas ({!Epoch}). When [f] returns or raises, and the
    calling domain is again the only one running, [merge ()] runs (other
    caches merge their own deltas there), then the memo delta merges in
    sorted key order with deterministic hit/miss accounting. Nested calls
    flatten into the outer epoch. This is the only way worker domains may
    reach a shared cache. *)
val epoch : ?merge:(unit -> unit) -> (unit -> 'a) -> 'a

(** [closure_key ~tag ~seed pairs] — canonical memo key for the closure of
    [seed] under the (lhs, rhs) dependency [pairs]. The key is insensitive
    to the order (and duplication) of [pairs], which the closure result
    provably is too. [tag] namespaces clients with different dependency
    semantics. *)
val closure_key : tag:char -> seed:Bitset.t -> (Bitset.t * Bitset.t) list -> string

(** [saturate ?on_fire pairs seed] — smallest superset of [seed] closed
    under the pairs: whenever a pair's lhs is contained in the
    accumulator, its rhs joins it (an empty lhs fires unconditionally).
    Counter-based linear-time closure (Beeri–Bernstein): per-pair
    unsatisfied-lhs counters plus a worklist of newly-acquired attributes.
    Counts one {!Counters.record_iteration} per call. [on_fire i added] is
    called for every firing that acquires attributes, with the index of
    the pair in [pairs] and the attributes it added; the [added] sets of
    one call are disjoint and their union is the closure minus [seed]. *)
val saturate :
  ?on_fire:(int -> Bitset.t -> unit) ->
  (Bitset.t * Bitset.t) list ->
  Bitset.t ->
  Bitset.t

(** [memo_closure ~tag ~seed pairs] — {!saturate} through the memo table:
    a hit records {!Counters.record_memo_hit} and runs no saturation, a
    miss computes and stores. Callers must check {!enabled} themselves. *)
val memo_closure : tag:char -> seed:Bitset.t -> (Bitset.t * Bitset.t) list -> Bitset.t
