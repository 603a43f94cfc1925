(* Generic dependency-closure engine.

   Every dependency class in the system — functional dependencies
   (lib/fd), bound-column equalities (lib/logic), and order dependencies
   (lib/od) — computes the same fixpoint: saturate a seed attribute set
   under implication pairs until nothing new is acquired. The interned
   bitset representation, the one saturation engine and the memo table in
   {!Runtime} are shared; only the encoding of a dependency as saturation
   pairs differs per class. This functor owns the shared plumbing so each
   client supplies just its encoding and a one-byte tag namespacing its
   memo keys. *)

module type CLIENT = sig
  type dep

  (* Namespaces memo keys so distinct classes never alias ('F' = FDs,
     'E' = equalities, 'O' = order dependencies). *)
  val tag : char

  (* Encode one dependency as saturation pairs [(lhs, rhs)]: whenever the
     accumulator covers [lhs] it acquires [rhs]. An empty [lhs] fires
     unconditionally. *)
  val encode : dep -> (Bitset.t * Bitset.t) list
end

module type S = sig
  type dep

  (* Closure of the seed under the deps. Untraced, memoized through
     {!Runtime.memo_closure} when the cache is enabled, a bare
     {!Runtime.saturate} otherwise. With [on_step], the saturation runs
     outside the memo and reports every firing: the dependency and the
     attributes it added. *)
  val closure :
    ?on_step:(dep -> Schema.Attr.Set.t -> unit) ->
    dep list ->
    Schema.Attr.Set.t ->
    Schema.Attr.Set.t

  (* [subsumes deps xs ys]: does the closure of [xs] cover [ys]? *)
  val subsumes : dep list -> Schema.Attr.Set.t -> Schema.Attr.Set.t -> bool
end

module Make (C : CLIENT) : S with type dep = C.dep = struct
  type dep = C.dep

  let closure_bits ?on_step deps seed =
    match on_step with
    | None ->
      let pairs = List.concat_map C.encode deps in
      if Runtime.enabled () then Runtime.memo_closure ~tag:C.tag ~seed pairs
      else Runtime.saturate pairs seed
    | Some f ->
      (* A narrated run bypasses the memo: a hit has no steps to tell. *)
      let encoded = List.map (fun d -> (d, C.encode d)) deps in
      let owner =
        Array.of_list
          (List.concat_map (fun (d, ps) -> List.map (fun _ -> d) ps) encoded)
      in
      Runtime.saturate
        ~on_fire:(fun i added -> f owner.(i) (Interner.set_of_bits added))
        (List.concat_map snd encoded) seed

  let closure ?on_step deps xs =
    Interner.set_of_bits (closure_bits ?on_step deps (Interner.bits_of_set xs))

  let subsumes deps xs ys = Schema.Attr.Set.subset ys (closure deps xs)
end
