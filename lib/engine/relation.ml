module Value = Sqlval.Value

type row = Value.t array

type t = {
  schema : Schema.Relschema.t;
  rows : row list;
}

let make schema rows =
  let arity = Schema.Relschema.arity schema in
  List.iter
    (fun r ->
      if Array.length r <> arity then
        invalid_arg
          (Printf.sprintf "Relation.make: row arity %d, schema arity %d"
             (Array.length r) arity))
    rows;
  { schema; rows }

let cardinality t = List.length t.rows

(* The row loops are top-level functions so that no closure is allocated
   per comparison. *)
let rec compare_from (a : row) (b : row) i =
  if i = Array.length a then 0
  else
    match Value.compare_total a.(i) b.(i) with
    | 0 -> compare_from a b (i + 1)
    | c -> c

let compare_rows a b = compare_from a b 0

(* [a] at positions [ka] against [b] at [kb], from column [j] *)
let rec compare_key_from ka (a : row) kb (b : row) j =
  if j = Array.length ka then 0
  else
    match Value.compare_total a.(ka.(j)) b.(kb.(j)) with
    | 0 -> compare_key_from ka a kb b (j + 1)
    | c -> c

let compare_at ka a kb b = compare_key_from ka a kb b 0

let equal_rows a b = compare_rows a b = 0

(* Must agree with [equal_rows]: under [Value.compare_total] a Float
   equals an Int exactly when it is integral and has the Int's value, so an
   integral Float in the int range hashes as that Int. *)
let hash_value = function
  | Value.Null -> 0x6e756c6c
  | Value.Int i -> Hashtbl.hash i
  | Value.Float f
    when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    Hashtbl.hash (Int.of_float f)
  | Value.Float f -> Hashtbl.hash f
  | Value.String s -> Hashtbl.hash s
  | Value.Bool b -> Hashtbl.hash b

(* The hash of the values of [r] at positions [key], in order. *)
let hash_at key (r : row) =
  let h = ref 17 in
  for j = 0 to Array.length key - 1 do
    h := (!h * 31) + hash_value r.(key.(j))
  done;
  !h

let has_null_at key (r : row) = Array.exists (fun i -> Value.is_null r.(i)) key

(* [a] copied into an array twice as long (at least 16), padded with
   [fill] *)
let double a fill =
  let b = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Open addressing over dense ids: [slots] maps a hash to an id, and the
   per-id arrays keep each key's hash and first row. Keys are read from
   that row at [key], never projected, and growing the slots moves ints
   only — a [Hashtbl] re-hashes every key through rows scattered over the
   heap when it grows. Load stays at most 1/2, so linear probing ends
   quickly. *)
module Keyed = struct
  type t = {
    key : int array;
    mutable slots : int array;  (* an id, or -1 when free *)
    mutable hashes : int array;  (* by id *)
    mutable firsts : row array;  (* by id *)
    mutable count : int;
  }

  let create key =
    { key; slots = Array.make 64 (-1); hashes = [||]; firsts = [||]; count = 0 }

  let count t = t.count
  let first t id = t.firsts.(id)

  let rec free_slot slots mask i =
    if slots.(i) < 0 then i else free_slot slots mask ((i + 1) land mask)

  let grow_slots t =
    let cap = 2 * Array.length t.slots in
    let slots = Array.make cap (-1) and mask = cap - 1 in
    for id = 0 to t.count - 1 do
      slots.(free_slot slots mask (t.hashes.(id) land mask)) <- id
    done;
    t.slots <- slots

  (* The slot holding [probe]'s key, or the free slot where it belongs,
     searching from slot [i]. *)
  let rec slot t h probe_key probe i =
    let id = t.slots.(i) in
    if id < 0
       || (t.hashes.(id) = h
           && compare_key_from t.key t.firsts.(id) probe_key probe 0 = 0)
    then i
    else slot t h probe_key probe ((i + 1) land (Array.length t.slots - 1))

  let find t probe_key probe =
    let h = hash_at probe_key probe in
    t.slots.(slot t h probe_key probe (h land (Array.length t.slots - 1)))

  let find_or_add t row =
    let h = hash_at t.key row in
    let i = slot t h t.key row (h land (Array.length t.slots - 1)) in
    let id = t.slots.(i) in
    if id >= 0 then id
    else begin
      let id = t.count in
      if id = Array.length t.firsts then begin
        t.hashes <- double t.hashes 0;
        t.firsts <- double t.firsts row
      end;
      t.slots.(i) <- id;
      t.hashes.(id) <- h;
      t.firsts.(id) <- row;
      t.count <- id + 1;
      if 2 * t.count > Array.length t.slots then grow_slots t;
      id
    end

  (* Frees each id's slot, found by probing from its hash (never stopping
     at a free slot, since earlier ids' slots are already freed), so a
     clear costs the keys held, not the slot capacity. *)
  let clear t =
    let mask = Array.length t.slots - 1 in
    for id = 0 to t.count - 1 do
      let rec free i =
        if t.slots.(i) = id then t.slots.(i) <- -1 else free ((i + 1) land mask)
      in
      free (t.hashes.(id) land mask)
    done;
    t.count <- 0

  (* [Some (t, ids)] with [ids.(r)] the key id of [rows.(r)], or [None]
     as soon as more than [limit] distinct keys appear *)
  let number ~limit key rows =
    let t = create key and n = Array.length rows in
    let ids = Array.make n 0 in
    let rec go r =
      if r = n then Some (t, ids)
      else begin
        ids.(r) <- find_or_add t rows.(r);
        if t.count > limit then None else go (r + 1)
      end
    in
    go 0

  (* Counting sort by bucket: [starts.(b)] counts rows up to and including
     bucket [b], then the backward placement pass turns it into the start
     of [b]'s run while keeping arrival order within each run. *)
  let layout count buckets (arrived : row array) n =
    let starts = Array.make (count + 1) 0 in
    for r = 0 to n - 1 do
      starts.(buckets.(r)) <- starts.(buckets.(r)) + 1
    done;
    for b = 1 to count do
      starts.(b) <- starts.(b) + starts.(b - 1)
    done;
    let rows = Array.make n [||] in
    for r = n - 1 downto 0 do
      let b = buckets.(r) in
      starts.(b) <- starts.(b) - 1;
      rows.(starts.(b)) <- arrived.(r)
    done;
    (starts, rows)

  type groups = { ids : t; starts : int array; rows : row array }

  let group key feed =
    let ids = create key in
    let row_ids = ref [||] and arrived = ref [||] and n = ref 0 in
    feed (fun row ->
        let id = find_or_add ids row in
        if !n = Array.length !arrived then begin
          row_ids := double !row_ids 0;
          arrived := double !arrived row
        end;
        !row_ids.(!n) <- id;
        !arrived.(!n) <- row;
        incr n);
    let starts, rows = layout ids.count !row_ids !arrived !n in
    { ids; starts; rows }
end

let dedup_sorted ?(tick = fun () -> ()) rows =
  match rows with
  | [] -> []
  | first :: rest ->
    let out, _ =
      List.fold_left
        (fun (acc, prev) r ->
          tick ();
          if compare_rows prev r = 0 then (acc, prev) else (r :: acc, r))
        ([ first ], first)
        rest
    in
    List.rev out

let sort_rows ?(tick = ignore) ?key rows =
  Array.stable_sort
    (match key with
     | None -> fun a b -> tick (); compare_rows a b
     | Some key -> fun a b -> tick (); compare_at key a key b)
    rows

let equal_bags a b =
  Schema.Relschema.union_compatible a.schema b.schema
  && List.length a.rows = List.length b.rows
  &&
  let sa = Array.of_list a.rows and sb = Array.of_list b.rows in
  sort_rows sa;
  sort_rows sb;
  Array.for_all2 equal_rows sa sb

let distinct_count t =
  let k = Keyed.create (Array.init (Schema.Relschema.arity t.schema) Fun.id) in
  List.iter (fun r -> ignore (Keyed.find_or_add k r)) t.rows;
  Keyed.count k

let pp ppf t =
  Format.fprintf ppf "%a: %d rows" Schema.Relschema.pp t.schema
    (cardinality t)

let to_text t =
  let cols = Schema.Relschema.columns t.schema in
  let headers = List.map (fun c -> Schema.Attr.to_string c.Schema.Relschema.attr) cols in
  let cells = List.map (fun r -> Array.to_list (Array.map Value.to_string r)) t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) cells)
      headers
  in
  let line xs =
    String.concat "  "
      (List.map2 (fun w x -> x ^ String.make (max 0 (w - String.length x)) ' ') widths xs)
  in
  String.concat "\n"
    ((line headers :: [ line (List.map (fun w -> String.make w '-') widths) ])
     @ List.map line cells)
