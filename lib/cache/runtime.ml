(* The closure memo is process-global because the closure functions it
   serves sit at the bottom of the dependency order (lib/fd, lib/logic)
   where no cache handle can be threaded through without widening every
   analyzer signature. It is disabled by default; the batch/serve drivers
   and the benchmark turn it on, and the difftest fuzzer toggles it both
   ways to prove it invisible.

   The table is a plain {!Lru}. Worker domains touch it only inside an
   epoch (see {!epoch}), where it is frozen and read through [Lru.peek];
   outside an epoch only one domain runs. The enable flag is atomic so
   worker domains read it coherently. *)

let flag = Atomic.make false
let enabled () = Atomic.get flag
let set_enabled b = Atomic.set flag b

let with_enabled b f =
  let saved = Atomic.get flag in
  Atomic.set flag b;
  Fun.protect ~finally:(fun () -> Atomic.set flag saved) f

let capacity = 4096
let table : (string, Bitset.t) Lru.t ref = ref (Lru.create ~capacity)
let clear () = table := Lru.create ~capacity

(* During an epoch the table is frozen: lookups peek it lock-free and new
   closures land in the domain-local delta, merged (sorted by key,
   deterministically accounted) by [merge_epoch] at the barrier. *)
let epoch_slot : (string, Bitset.t) Epoch.slot = Epoch.make_slot ()

let find_closure key =
  if Epoch.active () then Epoch.find epoch_slot ~peek:(Lru.peek !table) key
  else Lru.find !table key

let store_closure key v =
  if Epoch.active () then Epoch.store epoch_slot key v
  else Lru.add !table key v

let merge_epoch () =
  let d = Epoch.drain epoch_slot in
  List.iter (fun (k, v) -> Lru.add !table k v) d.Epoch.pairs;
  Lru.add_counters !table ~hits:d.Epoch.hits ~misses:d.Epoch.misses

let counters () = Lru.counters !table

let epoch ?(merge = ignore) f =
  if Epoch.active () then f ()
  else begin
    Epoch.enter ();
    Fun.protect
      ~finally:(fun () ->
        merge ();
        merge_epoch ();
        Epoch.leave ())
      f
  end

(* Canonical key: a tag byte distinguishing the client (FD closure vs
   equality closure), the seed set, then the dependency pairs sorted — the
   closure of a set under a dependency list does not depend on list order,
   so sorting buys sharing across syntactic permutations. *)
let closure_key ~tag ~(seed : Bitset.t) (pairs : (Bitset.t * Bitset.t) list) =
  let buf = Buffer.create 64 in
  Buffer.add_char buf tag;
  Bitset.add_to_buffer buf seed;
  Buffer.add_char buf '|';
  let serialized =
    List.map
      (fun (a, b) ->
        let pb = Buffer.create 16 in
        Bitset.add_to_buffer pb a;
        Buffer.add_char pb '>';
        Bitset.add_to_buffer pb b;
        Buffer.contents pb)
      pairs
  in
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf ';')
    (List.sort_uniq String.compare serialized);
  Buffer.contents buf

(* Counter-based linear closure (Beeri–Bernstein): each pair keeps a count
   of its lhs attributes not yet in the accumulator and a worklist carries
   newly-acquired attributes to the pairs watching them, so every pair and
   every attribute is touched O(1) times. Counts one iteration per call —
   the single pass over the dependency structure. [on_fire i added] hears
   every firing that acquires something: the index of the pair in [pairs]
   and the attributes it added. *)
let saturate ?on_fire pairs seed =
  Counters.record_iteration ();
  let pairs = Array.of_list pairs in
  let n = Array.length pairs in
  let counts = Array.make n 0 in
  (* attribute id -> indices of pairs still missing it *)
  let watchers : (int, int list) Hashtbl.t = Hashtbl.create (max 16 n) in
  let cur = ref seed in
  let queue = Queue.create () in
  let fire i =
    let _, rhs = pairs.(i) in
    let added = Bitset.diff rhs !cur in
    if not (Bitset.is_empty added) then begin
      cur := Bitset.union rhs !cur;
      Option.iter (fun f -> f i added) on_fire;
      Bitset.fold (fun a () -> Queue.add a queue) added ()
    end
  in
  Array.iteri
    (fun i (lhs, _) ->
      let missing = Bitset.diff lhs seed in
      let m = Bitset.cardinal missing in
      counts.(i) <- m;
      if m = 0 then fire i
      else
        Bitset.fold
          (fun a () ->
            let old = Option.value ~default:[] (Hashtbl.find_opt watchers a) in
            Hashtbl.replace watchers a (i :: old))
          missing ())
    pairs;
  (* An attribute enters the queue at most once: [fire] only enqueues the
     genuinely new part of a rhs, and [cur] absorbs it in the same step. *)
  while not (Queue.is_empty queue) do
    let a = Queue.pop queue in
    match Hashtbl.find_opt watchers a with
    | None -> ()
    | Some is ->
      Hashtbl.remove watchers a;
      List.iter
        (fun i ->
          counts.(i) <- counts.(i) - 1;
          if counts.(i) = 0 then fire i)
        is
  done;
  !cur

(* Two domains that miss on the same key in one epoch both compute and
   both store — the results are equal (saturation is deterministic), so
   the duplicate work is the only cost, surfacing as extra misses in the
   counters rather than as any observable difference in answers. *)
let memo_closure ~tag ~seed pairs =
  let key = closure_key ~tag ~seed pairs in
  match find_closure key with
  | Some bits ->
    Counters.record_memo_hit ();
    bits
  | None ->
    let bits = saturate pairs seed in
    store_closure key bits;
    bits
