module A = Sql.Ast
module R = Schema.Relschema

let bare name = Schema.Attr.make ~rel:"" ~name

(* CHECK shapes: satisfiable by construction over the 0..3 constant pool the
   instance generator draws from, so retry-until-valid converges fast. *)
let gen_check rng col =
  let c = A.Col (bare col) in
  let k () = Sqlval.Value.Int (Random.State.int rng 4) in
  match Random.State.int rng 4 with
  | 0 -> A.Cmp (A.Ge, c, A.Const (Sqlval.Value.Int (Random.State.int rng 2)))
  | 1 -> A.Cmp (A.Le, c, A.Const (Sqlval.Value.Int (2 + Random.State.int rng 2)))
  | 2 -> A.Between (c, A.Const (Sqlval.Value.Int 0), A.Const (Sqlval.Value.Int (1 + Random.State.int rng 3)))
  | _ ->
    let n = 2 + Random.State.int rng 2 in
    A.In_list (c, List.sort_uniq compare (List.init n (fun _ -> k ())))

let gen_table rng ~index ~parents =
  let name = Printf.sprintf "T%d" (index + 1) in
  let n_cols = 2 + Random.State.int rng 3 in
  let cols =
    List.init n_cols (fun i ->
        let cd_type =
          if i = 0 then R.Tint
          else
            match Random.State.int rng 10 with
            | 0 | 1 -> R.Tstring
            | 2 -> R.Tbool
            | 3 -> R.Tfloat
            | _ -> R.Tint
        in
        { A.cd_name = Printf.sprintf "C%d" (i + 1);
          cd_type;
          cd_not_null = Random.State.bool rng })
  in
  let names = List.map (fun c -> c.A.cd_name) cols in
  let pick_cols k =
    (* k distinct column names, in declaration order *)
    let shuffled =
      List.map (fun c -> (Random.State.bits rng, c)) names
      |> List.sort compare |> List.map snd
    in
    let chosen = List.filteri (fun i _ -> i < k) shuffled in
    List.filter (fun c -> List.mem c chosen) names
  in
  let pk =
    if Random.State.float rng 1.0 < 0.75 then
      [ A.C_primary_key (pick_cols (1 + Random.State.int rng 2)) ]
    else []
  in
  let uniq =
    if Random.State.float rng 1.0 < 0.4 then
      [ A.C_unique (pick_cols (1 + Random.State.int rng 2)) ]
    else []
  in
  let int_cols =
    List.filter_map
      (fun c -> if c.A.cd_type = R.Tint then Some c.A.cd_name else None)
      cols
  in
  let check =
    if int_cols <> [] && Random.State.float rng 1.0 < 0.5 then
      [ A.C_check
          (gen_check rng
             (List.nth int_cols (Random.State.int rng (List.length int_cols)))) ]
    else []
  in
  (* Reference an earlier table whose primary key is all-INT, through fresh
     nullable F-columns of matching arity. *)
  let fk_parent =
    let eligible =
      List.filter
        (fun (ct : A.create_table) ->
          List.exists
            (function
              | A.C_primary_key ks ->
                List.for_all
                  (fun k ->
                    List.exists
                      (fun c -> c.A.cd_name = k && c.A.cd_type = R.Tint)
                      ct.A.ct_cols)
                  ks
              | _ -> false)
            ct.A.ct_constraints)
        parents
    in
    if eligible = [] || Random.State.float rng 1.0 >= 0.35 then None
    else Some (List.nth eligible (Random.State.int rng (List.length eligible)))
  in
  let fk_cols, fk_constraint =
    match fk_parent with
    | None -> ([], [])
    | Some parent ->
      let arity =
        List.find_map
          (function A.C_primary_key ks -> Some (List.length ks) | _ -> None)
          parent.A.ct_constraints
        |> Option.get
      in
      let fnames = List.init arity (fun i -> Printf.sprintf "F%d" (i + 1)) in
      (* NOT NULL references half the time — join elimination requires
         them; the instance generator then simply drops child rows while
         the parent is empty *)
      let not_null = Random.State.bool rng in
      ( List.map
          (fun f -> { A.cd_name = f; cd_type = R.Tint; cd_not_null = not_null })
          fnames,
        [ A.C_foreign_key (fnames, parent.A.ct_name, []) ] )
  in
  { A.ct_name = name;
    ct_cols = cols @ fk_cols;
    ct_constraints = pk @ uniq @ check @ fk_constraint }

let generate ~rng =
  let n = 1 + Random.State.int rng 3 in
  let rec go acc i =
    if i = n then List.rev acc
    else go (gen_table rng ~index:i ~parents:(List.rev acc) :: acc) (i + 1)
  in
  go [] 0

let catalog_of_ddl ddl =
  List.fold_left
    (fun cat ct -> Catalog.add cat (Catalog.table_def_of_create ct))
    Catalog.empty ddl
