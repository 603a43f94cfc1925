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

let compare_rows (a : row) (b : row) =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      match Value.compare_total a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let equal_rows a b = compare_rows a b = 0

(* Must agree with [equal_rows]: Int 1 and Float 1.0 compare equal under
   [Value.compare_total], so numeric values hash through their float form. *)
let hash_value = function
  | Value.Null -> 0x6e756c6c
  | Value.Int i -> Hashtbl.hash (Float.of_int i)
  | Value.Float f -> Hashtbl.hash f
  | Value.String s -> Hashtbl.hash s
  | Value.Bool b -> Hashtbl.hash b

let hash_row (r : row) =
  Array.fold_left (fun h v -> (h * 31) + hash_value v) 17 r

module Row_tbl = Hashtbl.Make (struct
  type t = row

  let equal = equal_rows
  let hash = hash_row
end)

let project idxs (r : row) : row = Array.map (fun i -> r.(i)) idxs

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

let sort_rows ?(tick = fun () -> ()) rows =
  List.sort
    (fun a b ->
      tick ();
      compare_rows a b)
    rows

let equal_bags a b =
  Schema.Relschema.union_compatible a.schema b.schema
  && List.length a.rows = List.length b.rows
  &&
  let sa = sort_rows a.rows and sb = sort_rows b.rows in
  List.for_all2 (fun x y -> compare_rows x y = 0) sa sb

let distinct_count t =
  match sort_rows t.rows with
  | [] -> 0
  | first :: rest ->
    let count, _ =
      List.fold_left
        (fun (n, prev) r -> if compare_rows prev r = 0 then (n, r) else (n + 1, r))
        (1, first) rest
    in
    count

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
