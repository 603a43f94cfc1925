(** Bounded memo tables with least-recently-used eviction.

    The analysis caches must not grow with the workload: a server that sees
    millions of distinct query shapes keeps only the hottest [capacity]
    entries. Every lookup through {!find} counts a hit or a miss and every
    overflow counts an eviction; the counters feed [Engine.Stats] and the
    [ANALYSIS_CACHE] benchmark. *)

type ('k, 'v) t

(** Cumulative statistics of one table. *)
type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_length : int;  (** current number of entries *)
}

(** [create ~capacity] — an empty table holding at most [capacity] entries.
    @raise Invalid_argument when [capacity < 1]. *)
val create : capacity:int -> ('k, 'v) t

(** Lookup; marks the entry most-recently-used and counts a hit or miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Value lookup that touches neither recency nor the counters. The epoch
    layer ({!Epoch}) reads frozen tables through this and accounts the
    hits/misses itself with {!add_counters} at the merge. *)
val peek : ('k, 'v) t -> 'k -> 'v option

(** Credit externally-accounted lookups (epoch merges) to this table's
    hit/miss counters. *)
val add_counters : ('k, 'v) t -> hits:int -> misses:int -> unit

(** Insert or overwrite; evicts the least-recently-used entry on
    overflow. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

val length : ('k, 'v) t -> int

(** Drop every entry (counters are kept; see {!reset_counters}). *)
val clear : ('k, 'v) t -> unit

val counters : ('k, 'v) t -> counters
val reset_counters : ('k, 'v) t -> unit

(** Keys from most to least recently used — the next eviction takes the
    last element. *)
val keys_by_recency : ('k, 'v) t -> 'k list
