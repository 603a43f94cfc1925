module Attr = Schema.Attr

type fd = {
  lhs : Attr.Set.t;
  rhs : Attr.Set.t;
}

type t = fd list

let fd_equal a b = Attr.Set.equal a.lhs b.lhs && Attr.Set.equal a.rhs b.rhs

let empty = []
let to_list t = t
let add t f = if List.exists (fd_equal f) t then t else f :: t

(* Dedup on construction, keeping first occurrences in order. [add]'s
   prepend-then-reverse keeps this O(n^2) on tiny lists, which derived FD
   sets are; before this, [union] was a bare [@] and repeated derivation
   rounds could snowball duplicate dependencies. *)
let of_list l = List.rev (List.fold_left add empty l)
let union a b = of_list (to_list a @ to_list b)

let make_fd lhs rhs = { lhs = Attr.set_of_list lhs; rhs = Attr.set_of_list rhs }

let pp_fd ppf f =
  Format.fprintf ppf "%a -> %a" Attr.pp_set f.lhs Attr.pp_set f.rhs

(* The interned-bitset fixpoint is the generic engine: an FD is exactly
   one saturation pair. *)
module Closure = Cache.Dependency_closure.Make (struct
  type dep = fd

  let tag = 'F'

  let encode f =
    [ (Cache.Interner.bits_of_set f.lhs, Cache.Interner.bits_of_set f.rhs) ]
end)

let narrate trace f acquired =
  Trace.emitf trace (fun () ->
      Trace.node ~rule:"fd.closure-step"
        ~inputs:[ ("fd", Format.asprintf "%a" pp_fd f) ]
        ~facts:[ ("acquired", Format.asprintf "%a" Attr.pp_set acquired) ]
        "the left-hand side is contained in X+, so the right-hand side \
         joins it (Armstrong transitivity)")

(* One engine, traced or not: a live trace only adds the per-step
   narration (and bypasses the memo, so the snapshot-tested trace output
   is independent of the cache). *)
let closure ?(trace = Trace.disabled) t xs =
  Cache.Counters.record_call ();
  if Trace.enabled trace then Closure.closure ~on_step:(narrate trace) t xs
  else Closure.closure t xs

let implies t f = Attr.Set.subset f.rhs (closure t f.lhs)

let is_superkey t ~all xs = Attr.Set.subset all (closure t xs)

(* Enumerate subsets of [within] in order of increasing size and keep the
   minimal superkeys. Exhaustive only for small attribute counts. *)
let candidate_keys ?(exhaustive_limit = 14) t ~all ~within =
  let elems = Array.of_list (Attr.Set.elements within) in
  let n = Array.length elems in
  let superkey s = is_superkey t ~all s in
  if not (superkey within) then []
  else if n <= exhaustive_limit then begin
    let minimal = ref [] in
    (* subsets by increasing popcount so the first superkeys found that have
       no smaller subset-superkey are minimal *)
    let subsets = Array.make (1 lsl n) Attr.Set.empty in
    for mask = 0 to (1 lsl n) - 1 do
      let s = ref Attr.Set.empty in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then s := Attr.Set.add elems.(i) !s
      done;
      subsets.(mask) <- !s
    done;
    let masks = Array.init (1 lsl n) Fun.id in
    let popcount m =
      let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
      go m 0
    in
    Array.sort (fun a b -> Int.compare (popcount a) (popcount b)) masks;
    Array.iter
      (fun mask ->
        let s = subsets.(mask) in
        if superkey s
           && not (List.exists (fun k -> Attr.Set.subset k s) !minimal)
        then minimal := s :: !minimal)
      masks;
    List.rev !minimal
  end
  else begin
    (* greedy minimization of [within] *)
    let s = ref within in
    Array.iter
      (fun a ->
        let without = Attr.Set.remove a !s in
        if superkey without then s := without)
      elems;
    [ !s ]
  end

let pp ppf t =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_fd ppf t
