(** Process-wide closure-work counters.

    Every attribute-closure computation ({!Fd.Fdset.closure},
    {!Logic.Equalities.closure}) records one {e call}, and every run of the
    linear worklist engine ({!Runtime.saturate}) one {e iteration} — its
    single pass over the dependency structure. A closure answered from
    the {!Runtime} memo records a {e memo hit} and no iterations. The
    [ANALYSIS_CACHE] benchmark proves cache effectiveness
    with these counters — warm passes must do strictly fewer iterations
    than cold ones — because iteration counts, unlike wall-clock times, are
    deterministic and diff cleanly across runs. *)

val record_call : unit -> unit
val record_iteration : unit -> unit
val record_memo_hit : unit -> unit

(** Zero all three counters. *)
val reset : unit -> unit

(** An immutable reading of the counters. *)
type snapshot = {
  calls : int;
  iterations : int;
  memo_hits : int;
}

val snapshot : unit -> snapshot

(** [diff before after] — the work done between two snapshots. *)
val diff : snapshot -> snapshot -> snapshot

(** Name/value pairs in declaration order (stable interchange form, like
    {!Engine.Stats.fields}). *)
val fields : snapshot -> (string * int) list
