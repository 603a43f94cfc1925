(** Epoch-scoped thread-local cache deltas.

    An {e epoch} is a region — typically one [Parallel.Pool.map] batch —
    during which the shared cache tables are frozen: lookups read them
    with lock-free non-mutating peeks, and all new entries accumulate in
    per-domain local deltas held in a {!slot}. At the epoch boundary,
    when the submitting domain is again the only one running, {!drain}
    hands the deltas back for a sorted-order merge into the shared table.

    Epochs are the one concurrency rule of the cache layer: worker
    domains touch shared caches only inside one, so the tables themselves
    are plain single-domain {!Lru}s. The design buys two properties at
    once: worker domains take {e no} cache lock on the query path, and
    cache accounting becomes
    {e scheduling-independent} — a lookup is a hit iff the key is in the
    frozen shared table, a miss otherwise (even when the local delta
    serves the value), and merges insert in sorted key order so recency
    and eviction order are reproducible. Hit/miss totals at any [--jobs]
    equal the sequential totals for the same epoch sequence; the
    [test_parallel] epoch-equivalence suite pins this.

    Safety contract: {!enter}, {!leave} and {!drain} must be called while
    only one domain is running (the pool barrier guarantees this); peeks
    of the shared table are safe {e only} because nothing writes it
    between {!enter} and the merge. *)

(** Is an epoch currently open? Read by cache modules to route lookups
    and stores to the local-delta path. *)
val active : unit -> bool

(** Open an epoch: bump the generation (invalidating every domain's
    leftover local) and set {!active}. Single-domain only. *)
val enter : unit -> unit

(** Close the epoch ({!active} becomes false). Call after draining and
    merging every slot used inside. Single-domain only. *)
val leave : unit -> unit

(** The per-domain delta registry for one shared table. Create one slot
    per shared table that participates in epochs; it is reused across
    epochs (generation tagging keeps epochs separate). Slots are cheap and
    may be abandoned: a domain drops its locals of every slot at its first
    use of any slot in a later epoch, so creating a short-lived cache per
    request or per case does not grow the heap. *)
type ('k, 'v) slot

val make_slot : unit -> ('k, 'v) slot

(** [find slot ~peek k] — epoch lookup: consult the frozen shared table
    via [peek] (counting a deterministic hit on success), fall back to
    this domain's delta (counting a miss {e even on success} — delta
    placement is scheduling-dependent, the counters must not be). *)
val find : ('k, 'v) slot -> peek:('k -> 'v option) -> 'k -> 'v option

(** Record a newly computed entry in this domain's delta. *)
val store : ('k, 'v) slot -> 'k -> 'v -> unit

(** What {!drain} hands back: the union of all domains' deltas sorted by
    key (duplicates possible when two domains computed the same key; the
    values are equal) plus the summed deterministic hit/miss counts. *)
type ('k, 'v) drained = {
  pairs : ('k * 'v) list;
  hits : int;
  misses : int;
}

(** Collect and reset every domain's delta for this slot. Single-domain
    only (epoch boundary). *)
val drain : ('k, 'v) slot -> ('k, 'v) drained
