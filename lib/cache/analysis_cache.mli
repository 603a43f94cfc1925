(** Memoized uniqueness verdicts keyed by canonical query fingerprints.

    Algorithm 1 and the FD analyzer both answer a boolean question — "does
    this query specification return no duplicates?" — whose answer depends
    only on the catalog and the {e shape} of the query, not on the spelling
    of its correlation names. This module caches those verdicts in an
    LRU-bounded table keyed by {!Fingerprint.query_key}, a fingerprint that
    is invariant under alpha-renaming of correlation names (so
    [SELECT X.A FROM T X] and [SELECT Y.A FROM T Y] share one entry) and
    that embeds a digest of the catalog (so any catalog change invalidates
    every entry for the old catalog automatically).

    Caching is {e semantically invisible}: a cached verdict is exactly what
    the analysis would recompute (fuzz-tested in [lib/difftest]), and traced
    requests always run the full analysis so the provenance tree stays
    complete — a hit only appends a [cache.hit] marker node. *)

module Fingerprint : sig
  (** Hex digest of every table definition in the catalog (names, columns,
      keys, checks, foreign keys, view definitions). Memoized on physical
      equality of the catalog value, which is safe because catalogs are
      immutable. *)
  val schema_digest : Catalog.t -> string

  (** [query_key ~tag cat q] — the cache key for [q] under [cat]. [tag]
      namespaces the analyzer asking (e.g. ["alg1"] vs ["fd"], whose
      verdicts differ). Correlation names are alpha-renamed scope-by-scope
      to canonical ["T<depth>_<i>"] names (capture-free across nested
      [EXISTS]); queries that resist canonicalization (unknown or ambiguous
      columns) fall back to their literal text, which over-discriminates
      but never conflates distinct queries. *)
  val query_key : tag:string -> Catalog.t -> Sql.Ast.query_spec -> string
end

(** A verdict cache; share one per batch/serve session. Worker domains
    may use it only inside {!epoch}; outside an epoch it is a plain
    single-domain LRU. *)
type t

val create : ?capacity:int -> unit -> t

(** [cached_verdict t ~tag ?trace ~run cat q] — the verdict for [q],
    served from cache when present. On a miss, [run ()] computes and the
    result is stored. On a hit with a live [trace], [run ()] still executes
    (to produce the full provenance tree) and a [cache.hit] node is
    appended; on a hit without a trace the analysis is skipped entirely. *)
val cached_verdict :
  t ->
  tag:string ->
  ?trace:Trace.t ->
  run:(unit -> bool) ->
  Catalog.t ->
  Sql.Ast.query_spec ->
  bool

(** [epoch t f] — run [f] (typically one [Parallel.Pool.map] batch) with
    the verdict cache {e and} the {!Cache.Runtime} closure memo frozen:
    lookups peek the shared tables lock-free, new entries accumulate in
    per-domain deltas ({!Cache.Epoch}), and at the end — when the calling
    domain is again the only one running — both deltas are merged in
    sorted key order with deterministic hit/miss accounting. Counters and
    cache contents after the epoch are identical at any [--jobs] for the
    same workload. Nested calls flatten into the outer epoch; [jobs = 1]
    callers may use it unconditionally (same answers, same counters).
    Built on {!Cache.Runtime.epoch}. *)
val epoch : t -> (unit -> 'a) -> 'a

(** Hit/miss/eviction counters since creation (or {!reset_counters}). *)
val counters : t -> Cache.Lru.counters

val reset_counters : t -> unit

(** Drop every cached verdict (counters are kept). *)
val clear : t -> unit

(** Number of entries currently cached. *)
val length : t -> int
