module A = Sql.Ast
module R = Schema.Relschema
module Value = Sqlval.Value
module Truth = Sqlval.Truth

(* FLOAT draws: integral values equal to the INT pool 0..3, plus two
   values that differ as numbers but print alike under %g (1.23457e+06) —
   a key format built from printed values would confuse them — and the
   floats around 2^53, where comparing through Float.of_int would equate
   distinct Ints. All are non-negative: query constants draw from this
   pool too, and SQL literals carry no sign. *)
let float_values =
  [ 0.; 1.; 2.; 3.; 1234567.; 1234568.; 0x1p53 -. 1.; 0x1p53; 0x1p53 +. 2. ]

let float_value rng =
  Value.Float
    (List.nth float_values (Random.State.int rng (List.length float_values)))

let random_value rng (col : R.column) =
  if col.R.nullable && Random.State.float rng 1.0 < 0.25 then Value.Null
  else
    match col.R.ctype with
    | R.Tint -> Value.Int (Random.State.int rng 4)
    | R.Tstring ->
      Value.String (List.nth [ "a"; "b"; "c" ] (Random.State.int rng 3))
    | R.Tbool -> Value.Bool (Random.State.bool rng)
    | R.Tfloat -> float_value rng

let checks_pass (def : Catalog.table_def) row =
  let schema = def.Catalog.tbl_schema in
  let lookup_col a =
    match R.find_index schema a with
    | Some i -> row.(i)
    | None -> raise (Logic.Eval.Unbound_column a)
  in
  List.for_all
    (fun check ->
      Truth.is_not_false
        (Logic.Eval.eval_pred_simple ~lookup_col
           ~lookup_host:(fun h -> raise (Logic.Eval.Unbound_host h))
           check))
    def.Catalog.tbl_checks

let tables ~rng ?(rows = 6) cat =
  let generated = Hashtbl.create 8 in
  (* catalog order is sorted by name; the schema generator numbers tables so
     foreign keys always reference an already-generated table *)
  let defs = Catalog.tables cat in
  List.map
    (fun (def : Catalog.table_def) ->
      let name = def.Catalog.tbl_name in
      let schema = def.Catalog.tbl_schema in
      let cols = R.columns schema in
      let col_index cname =
        R.index_of schema (Schema.Attr.make ~rel:name ~name:cname)
      in
      (* one dedup set per candidate key, keyed as Database.validate keys
         them, so a row accepted here is never reported as Duplicate_key
         there *)
      let keys =
        List.map
          (fun (k : Catalog.key) ->
            let idxs = Array.of_list (List.map col_index k.Catalog.key_cols) in
            (idxs, Engine.Relation.Keyed.create idxs))
          (Catalog.candidate_keys def)
      in
      let fks =
        List.filter_map
          (fun (fk : Catalog.foreign_key) ->
            match Catalog.resolve_fk cat fk with
            | ref_cols ->
              let parent = Catalog.find_exn cat fk.Catalog.fk_table in
              let ref_idx =
                List.map
                  (fun c ->
                    R.index_of parent.Catalog.tbl_schema
                      (Schema.Attr.make ~rel:parent.Catalog.tbl_name ~name:c))
                  ref_cols
              in
              Some (List.map col_index fk.Catalog.fk_cols, fk.Catalog.fk_table, ref_idx)
            | exception Failure _ -> None)
          def.Catalog.tbl_foreign_keys
      in
      let gen_row () =
        let row =
          Array.of_list (List.map (fun c -> random_value rng c) cols)
        in
        (* overwrite FK positions with the key of a random parent row, or
           NULL when the parent is empty or one time in five *)
        let fk_ok =
          List.for_all
            (fun (fk_idx, parent, ref_idx) ->
              let parent_rows =
                Option.value ~default:[] (Hashtbl.find_opt generated parent)
              in
              let all_nullable =
                List.for_all (fun i -> (List.nth cols i).R.nullable) fk_idx
              in
              let prefer_null =
                parent_rows = [] || Random.State.int rng 5 = 0
              in
              if prefer_null && all_nullable then begin
                List.iter (fun i -> row.(i) <- Value.Null) fk_idx;
                true
              end
              else if parent_rows = [] then false
              else begin
                let p =
                  List.nth parent_rows
                    (Random.State.int rng (List.length parent_rows))
                in
                List.iter2 (fun i j -> row.(i) <- p.(j)) fk_idx ref_idx;
                true
              end)
            fks
        in
        if (not fk_ok) || not (checks_pass def row) then None
        else if
          (* primary keys already have NOT NULL columns (catalog enforces);
             reject duplicates under the null-comparison tag *)
          List.exists
            (fun (idxs, seen) -> Engine.Relation.Keyed.find seen idxs row >= 0)
            keys
        then None
        else begin
          List.iter
            (fun (_, seen) -> ignore (Engine.Relation.Keyed.find_or_add seen row))
            keys;
          Some row
        end
      in
      let target = Random.State.int rng (rows + 1) in
      let out = ref [] in
      for _ = 1 to target do
        (* rejection sampling; give up on a row after a few tries (the
           table just ends up smaller) *)
        let rec attempt k =
          if k = 0 then ()
          else
            match gen_row () with
            | Some r -> out := r :: !out
            | None -> attempt (k - 1)
        in
        attempt 10
      done;
      let rows = List.rev !out in
      Hashtbl.replace generated name rows;
      (name, rows))
    defs

let database ?(ordered = false) cat rows =
  let db = Engine.Database.create cat in
  List.iter
    (fun (name, rs) ->
      match R.columns (Catalog.find_exn cat name).Catalog.tbl_schema with
      | first :: _ when ordered ->
        let rs =
          List.stable_sort (fun a b -> Value.compare_total a.(0) b.(0)) rs
        in
        Engine.Database.load_sorted db name rs
          ~order:[ first.R.attr.Schema.Attr.name ]
      | _ -> Engine.Database.load db name rs)
    rows;
  db

let hosts ~rng q =
  let rec of_query = function
    | A.Spec s -> A.hosts_of_query_spec s
    | A.Setop (_, _, a, b) -> of_query a @ of_query b
  in
  let names = List.sort_uniq String.compare (of_query q) in
  List.map (fun h -> (h, Value.Int (Random.State.int rng 4))) names
