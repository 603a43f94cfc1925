module Attr = Schema.Attr

(* One process-wide table. Attribute names are already canonicalized
   (uppercased) by Attr.make, so interning is a plain hash-cons; the table
   only ever grows, which is fine — a workload touches the attributes of
   its catalog, not an unbounded stream.

   Domain safety: the attr -> id map is an immutable map published through
   an atomic, so a lookup of a known attribute — every call once the
   catalog's attributes are in — reads it without a lock, from any domain.
   Only allocation locks: it re-checks the map under [lock], writes the
   reverse array, bumps [next], then publishes the extended map. The
   reverse array is itself published with [Atomic.set] {e before} [next]
   is bumped, so any reader that sees an id [i < next] (or finds [i] in
   the map) is guaranteed to see an array that holds slot [i]; [attr]
   therefore reads without the lock too. *)

let lock = Mutex.create ()
let ids : int Attr.Map.t Atomic.t = Atomic.make Attr.Map.empty
let next = Atomic.make 0
let attrs : Attr.t array Atomic.t =
  Atomic.make (Array.make 256 (Attr.make ~rel:"" ~name:""))

(* Caller holds [lock]. *)
let allocate a =
  match Attr.Map.find_opt a (Atomic.get ids) with
  | Some i -> i
  | None ->
    let i = Atomic.get next in
    let arr = Atomic.get attrs in
    let arr =
      if i < Array.length arr then arr
      else begin
        let bigger = Array.make (2 * Array.length arr) a in
        Array.blit arr 0 bigger 0 (Array.length arr);
        Atomic.set attrs bigger;
        bigger
      end
    in
    arr.(i) <- a;
    Atomic.incr next;
    Atomic.set ids (Attr.Map.add a i (Atomic.get ids));
    i

let id a =
  match Attr.Map.find_opt a (Atomic.get ids) with
  | Some i -> i
  | None -> Mutex.protect lock (fun () -> allocate a)

let attr i =
  if i < 0 || i >= Atomic.get next then invalid_arg "Interner.attr: unknown id";
  (Atomic.get attrs).(i)

let bits_of_set s = Attr.Set.fold (fun a acc -> Bitset.add (id a) acc) s Bitset.empty

let set_of_bits b =
  Bitset.fold (fun i acc -> Attr.Set.add (attr i) acc) b Attr.Set.empty
