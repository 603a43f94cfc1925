type ('k, 'v) entry = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) entry option;  (* toward most recent *)
  mutable next : ('k, 'v) entry option;  (* toward least recent *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable newest : ('k, 'v) entry option;
  mutable oldest : ('k, 'v) entry option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_length : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    newest = None;
    oldest = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.newest <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.oldest <- e.prev);
  e.prev <- None;
  e.next <- None

let is_newest t e = match t.newest with Some n -> n == e | None -> false

let push_front t e =
  e.next <- t.newest;
  e.prev <- None;
  (match t.newest with Some n -> n.prev <- Some e | None -> t.oldest <- Some e);
  t.newest <- Some e

let find t k =
  match Hashtbl.find_opt t.table k with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some e ->
    t.hits <- t.hits + 1;
    if not (is_newest t e) then begin
      unlink t e;
      push_front t e
    end;
    Some e.value

(* Value lookup that touches neither recency nor counters: the epoch
   layer reads frozen tables through this (lock-free — a plain Hashtbl
   read is safe exactly because nothing mutates during an epoch), and
   accounts hits/misses deterministically itself via [add_counters]. *)
let peek t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some e -> Some e.value

let add_counters t ~hits ~misses =
  t.hits <- t.hits + hits;
  t.misses <- t.misses + misses

let add t k v =
  (match Hashtbl.find_opt t.table k with
   | Some e ->
     e.value <- v;
     if not (is_newest t e) then begin
       unlink t e;
       push_front t e
     end
   | None ->
     let e = { key = k; value = v; prev = None; next = None } in
     Hashtbl.replace t.table k e;
     push_front t e;
     if Hashtbl.length t.table > t.capacity then
       match t.oldest with
       | None -> assert false
       | Some victim ->
         unlink t victim;
         Hashtbl.remove t.table victim.key;
         t.evictions <- t.evictions + 1)

let length t = Hashtbl.length t.table

let clear t =
  Hashtbl.reset t.table;
  t.newest <- None;
  t.oldest <- None

let counters t =
  { c_hits = t.hits; c_misses = t.misses; c_evictions = t.evictions;
    c_length = length t }

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

(* Keys from most to least recently used (tests pin the eviction order
   against this). *)
let keys_by_recency t =
  let rec go acc = function
    | None -> List.rev acc
    | Some e -> go (e.key :: acc) e.next
  in
  go [] t.newest
