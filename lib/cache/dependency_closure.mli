(** Generic dependency-closure engine.

    Every dependency class in the system — functional dependencies
    ([lib/fd]), bound-column equalities ([lib/logic]), and order
    dependencies ([lib/od]) — computes the same fixpoint: saturate a
    seed attribute set under implication pairs until nothing new is
    acquired. The interned bitset representation, the one saturation
    engine ({!Runtime.saturate}) and the memo table in {!Runtime} are
    shared; only the encoding of a dependency as saturation pairs differs
    per class. This functor owns the shared plumbing so each client
    supplies just its encoding and a one-byte tag namespacing its memo
    keys. *)

module type CLIENT = sig
  type dep

  (** Namespaces memo keys so distinct classes never alias (['F'] =
      FDs, ['E'] = equalities, ['O'] = order dependencies). *)
  val tag : char

  (** Encode one dependency as saturation pairs [(lhs, rhs)]: whenever
      the accumulator covers [lhs] it acquires [rhs]. An empty [lhs]
      fires unconditionally. *)
  val encode : dep -> (Bitset.t * Bitset.t) list
end

module type S = sig
  type dep

  (** Closure of the seed under the deps. Without [on_step] it is
      memoized through {!Runtime.memo_closure} when the cache is enabled,
      a bare {!Runtime.saturate} otherwise. With [on_step] — how traced
      callers narrate — the same engine runs outside the memo and calls
      [on_step dep added] for every firing that acquires attributes, in
      firing order; the [added] sets are disjoint and their union is the
      closure minus the seed. *)
  val closure :
    ?on_step:(dep -> Schema.Attr.Set.t -> unit) ->
    dep list ->
    Schema.Attr.Set.t ->
    Schema.Attr.Set.t

  (** [subsumes deps xs ys]: does the closure of [xs] cover [ys]? *)
  val subsumes : dep list -> Schema.Attr.Set.t -> Schema.Attr.Set.t -> bool
end

module Make (C : CLIENT) : S with type dep = C.dep
