(* Epoch-scoped thread-local cache deltas.

   During an epoch the shared tables are frozen: readers use lock-free
   non-mutating peeks ({!Lru.peek}) and every write lands in a
   per-domain local delta instead. At the epoch boundary — a point where
   the submitting domain is the only one running, e.g. right after a
   [Parallel.Pool.map] barrier — the deltas are drained and merged into
   the shared table in sorted key order. Epochs are the only way worker
   domains reach a shared cache. Two consequences:

   - {e No cache lock on the query path.} Workers never lock a shared
     table during an epoch; the only synchronization is the one-time
     registration of each domain's local in the slot registry.
   - {e Deterministic accounting.} A lookup counts a hit iff the key is in
     the frozen shared table — a fact independent of scheduling — and a
     miss otherwise, even when the local delta serves the value without
     recomputation. Merges insert in sorted key order, so recency (and
     hence future evictions) are also scheduling-independent. Hit/miss
     totals at any [--jobs] therefore equal the [--jobs 1] totals for the
     same sequence of epochs.

   Every domain keeps its locals for all slots in one table under one
   domain-local key, tagged with the generation it was built in. Entering
   an epoch bumps the global generation, so a domain's table from an
   earlier epoch is dropped wholesale on its first use in the next one:
   nothing outlives the epoch after its own, however many slots (caches)
   are created and abandoned along the way. *)

let generation = Atomic.make 0
let active_flag = Atomic.make false

let active () = Atomic.get active_flag

let enter () =
  Atomic.incr generation;
  Atomic.set active_flag true

let leave () = Atomic.set active_flag false

type ('k, 'v) local = {
  delta : ('k, 'v) Hashtbl.t;
  mutable l_hits : int;
  mutable l_misses : int;
}

(* Locals of differently typed slots share one per-domain table, so each
   slot brings its own constructor of this open type to store and recover
   its locals type-safely. *)
type packed = ..

type locals = {
  gen : int;
  by_slot : (int, packed) Hashtbl.t;
}

let locals_key : locals ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref { gen = -1; by_slot = Hashtbl.create 1 })

type ('k, 'v) slot = {
  id : int;
  pack : ('k, 'v) local -> packed;
  unpack : packed -> ('k, 'v) local option;
  reg_mutex : Mutex.t;
  mutable registry : ('k, 'v) local list;
}

let next_id = Atomic.make 0

let make_slot (type k v) () : (k, v) slot =
  let module P = struct
    type packed += Local of (k, v) local
  end in
  {
    id = Atomic.fetch_and_add next_id 1;
    pack = (fun l -> P.Local l);
    unpack = (function P.Local l -> Some l | _ -> None);
    reg_mutex = Mutex.create ();
    registry = [];
  }

(* This domain's local for the current epoch, created (and registered for
   the drain) on first use. The registry mutex is taken once per domain
   per slot per epoch — the only cross-domain synchronization on the
   lookup path. *)
let local_of slot =
  let cell = Domain.DLS.get locals_key in
  let gen = Atomic.get generation in
  if !cell.gen <> gen then cell := { gen; by_slot = Hashtbl.create 8 };
  match Option.bind (Hashtbl.find_opt !cell.by_slot slot.id) slot.unpack with
  | Some l -> l
  | None ->
    let l = { delta = Hashtbl.create 64; l_hits = 0; l_misses = 0 } in
    Hashtbl.replace !cell.by_slot slot.id (slot.pack l);
    Mutex.lock slot.reg_mutex;
    slot.registry <- l :: slot.registry;
    Mutex.unlock slot.reg_mutex;
    l

let find slot ~peek k =
  let l = local_of slot in
  match peek k with
  | Some _ as r ->
    l.l_hits <- l.l_hits + 1;
    r
  | None ->
    (* Found-in-delta still accounts as a miss: whether this domain
       already computed the key this epoch depends on which domain drew
       which item, and the counters must not. The value is reused either
       way. *)
    l.l_misses <- l.l_misses + 1;
    Hashtbl.find_opt l.delta k

let store slot k v =
  let l = local_of slot in
  Hashtbl.replace l.delta k v

type ('k, 'v) drained = {
  pairs : ('k * 'v) list;  (* sorted by key *)
  hits : int;
  misses : int;
}

let drain slot =
  Mutex.lock slot.reg_mutex;
  let locals = slot.registry in
  slot.registry <- [];
  Mutex.unlock slot.reg_mutex;
  let pairs =
    List.concat_map
      (fun l -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) l.delta [])
      locals
  in
  {
    pairs = List.sort (fun (a, _) (b, _) -> compare a b) pairs;
    hits = List.fold_left (fun acc l -> acc + l.l_hits) 0 locals;
    misses = List.fold_left (fun acc l -> acc + l.l_misses) 0 locals;
  }
