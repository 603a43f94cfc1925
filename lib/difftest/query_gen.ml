module A = Sql.Ast
module R = Schema.Relschema
module Value = Sqlval.Value

(* ---- the Randquery-compatible core ---- *)

type pred_style =
  | Sampled of { max_predicates : int; const_range : int }
  | Per_column of { const_range : int }

let simple_spec ~rng ~from ~columns ~style =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let col c = A.Col (Schema.Attr.of_string c) in
  let proj =
    let chosen = List.filter (fun _ -> Random.State.bool rng) columns in
    if chosen = [] then [ pick columns ] else chosen
  in
  let rhs_of const_range =
    if Random.State.bool rng then
      A.Const (Value.Int (Random.State.int rng const_range))
    else col (pick columns)
  in
  let preds =
    match style with
    | Sampled { max_predicates; const_range } ->
      List.init
        (Random.State.int rng (max_predicates + 1))
        (fun _ ->
          let lhs = pick columns in
          A.Cmp (A.Eq, col lhs, rhs_of const_range))
    | Per_column { const_range } ->
      List.map
        (fun c ->
          let rhs = rhs_of const_range in
          if Random.State.int rng 3 = 0 then A.Cmp (A.Eq, col c, rhs)
          else A.Cmp (A.Le, col c, rhs))
        columns
  in
  A.plain_spec ~distinct:A.Distinct
    ~select:(A.Cols (List.map col proj))
    ~from ~where:(A.conj preds) ()

(* ---- the rich generator for differential testing ---- *)

(* a query-visible column: qualified attribute + type *)
type qcol = { attr : Schema.Attr.t; ctype : R.col_type }

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let cols_of_occurrence ~corr (def : Catalog.table_def) =
  List.map
    (fun (c : R.column) ->
      { attr = Schema.Attr.make ~rel:corr ~name:c.R.attr.Schema.Attr.name;
        ctype = c.R.ctype })
    (R.columns def.Catalog.tbl_schema)

let const_for rng = function
  | R.Tint -> Value.Int (Random.State.int rng 4)
  | R.Tstring -> Value.String (pick rng [ "a"; "b"; "c" ])
  | R.Tbool -> Value.Bool (Random.State.bool rng)
  | R.Tfloat -> Instance_gen.float_value rng

(* INT and FLOAT columns compare numerically, so equalities may mix them *)
let comparable a b =
  a = b
  || match a, b with
     | (R.Tint | R.Tfloat), (R.Tint | R.Tfloat) -> true
     | _ -> false

let any_cmp rng = pick rng [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ]

(* one atomic condition over [cols]; never Ptrue, so shrinking a conjunct
   away always simplifies the predicate *)
let rec atom rng cols ~depth =
  let c = pick rng cols in
  let sc = A.Col c.attr in
  match Random.State.int rng 8 with
  | 0 | 1 -> A.Cmp (any_cmp rng, sc, A.Const (const_for rng c.ctype))
  | 2 ->
    (match List.filter (fun c' -> comparable c'.ctype c.ctype && c' <> c) cols with
     | [] -> A.Cmp (A.Eq, sc, A.Const (const_for rng c.ctype))
     | peers -> A.Cmp (A.Eq, sc, A.Col (pick rng peers).attr))
  | 3 -> A.Cmp (A.Eq, sc, A.Host (pick rng [ "H1"; "H2" ]))
  | 4 ->
    (match List.filter (fun c' -> c'.ctype = R.Tint) cols with
     | [] -> A.Is_null sc
     | ints ->
       let i = (pick rng ints).attr in
       let lo = Random.State.int rng 3 in
       let hi = lo + Random.State.int rng 3 in
       A.Between (A.Col i, A.Const (Value.Int lo), A.Const (Value.Int hi)))
  | 5 ->
    let n = 1 + Random.State.int rng 3 in
    A.In_list
      (sc, List.sort_uniq compare (List.init n (fun _ -> const_for rng c.ctype)))
  | 6 -> if Random.State.bool rng then A.Is_null sc else A.Is_not_null sc
  | _ ->
    if depth = 0 then
      (* one level of boolean structure: a disjunction or a negation *)
      if Random.State.bool rng then
        A.Or (atom rng cols ~depth:1, atom rng cols ~depth:1)
      else A.Not (atom rng cols ~depth:1)
    else A.Cmp (any_cmp rng, sc, A.Const (const_for rng c.ctype))

(* positive correlated EXISTS: one inner table (corr E1), an equality
   correlating an inner column with an outer one, plus 0-1 local atoms *)
let exists_atom rng cat outer_cols =
  let defs = Catalog.tables cat in
  let def = pick rng defs in
  let inner = cols_of_occurrence ~corr:"E1" def in
  let correlation =
    let ic = pick rng inner in
    match List.filter (fun c -> comparable c.ctype ic.ctype) outer_cols with
    | [] -> A.Cmp (A.Eq, A.Col ic.attr, A.Const (const_for rng ic.ctype))
    | peers -> A.Cmp (A.Eq, A.Col ic.attr, A.Col (pick rng peers).attr)
  in
  let local =
    if Random.State.bool rng then [ atom rng inner ~depth:1 ] else []
  in
  A.Exists
    (A.plain_spec ~select:A.Star
       ~from:[ { A.table = def.Catalog.tbl_name; corr = Some "E1" } ]
       ~where:(A.conj (correlation :: local))
       ())

let where_pred rng cat cols =
  let n = Random.State.int rng 4 in
  let conjunct _ =
    if Random.State.int rng 5 = 0 then exists_atom rng cat cols
    else atom rng cols ~depth:0
  in
  A.conj (List.init n conjunct)

(* child ⋈ parent along a declared FOREIGN KEY, projecting child columns
   only — the shape join elimination looks for (it applies when the FK
   columns are NOT NULL, and must refuse when they are nullable) *)
let fk_join_spec rng cat =
  let with_fk =
    List.filter
      (fun (d : Catalog.table_def) -> d.Catalog.tbl_foreign_keys <> [])
      (Catalog.tables cat)
  in
  match with_fk with
  | [] -> None
  | defs ->
    let child = pick rng defs in
    let fk = pick rng child.Catalog.tbl_foreign_keys in
    (match Catalog.resolve_fk cat fk with
     | exception Failure _ -> None
     | ref_cols ->
       let parent = Catalog.find_exn cat fk.Catalog.fk_table in
       let join =
         List.map2
           (fun f r ->
             A.Cmp
               (A.Eq,
                A.Col (Schema.Attr.make ~rel:"Q1" ~name:f),
                A.Col (Schema.Attr.make ~rel:"Q2" ~name:r)))
           fk.Catalog.fk_cols ref_cols
       in
       let ccols = cols_of_occurrence ~corr:"Q1" child in
       let extra =
         List.init (Random.State.int rng 2) (fun _ -> atom rng ccols ~depth:1)
       in
       let select =
         let chosen = List.filter (fun _ -> Random.State.bool rng) ccols in
         let chosen = match chosen with [] -> [ pick rng ccols ] | cs -> cs in
         A.Cols (List.map (fun c -> A.Col c.attr) chosen)
       in
       let distinct = if Random.State.bool rng then A.Distinct else A.All in
       Some
         (A.plain_spec ~distinct ~select
            ~from:
              [ { A.table = child.Catalog.tbl_name; corr = Some "Q1" };
                { A.table = parent.Catalog.tbl_name; corr = Some "Q2" } ]
            ~where:(A.conj (join @ extra)) ()))

let generic_spec ~rng cat =
  let defs = Catalog.tables cat in
  let n_occ = if Random.State.int rng 5 < 2 then 2 else 1 in
  let occs =
    List.init n_occ (fun i ->
        let def = pick rng defs in
        let corr = Printf.sprintf "Q%d" (i + 1) in
        ({ A.table = def.Catalog.tbl_name; corr = Some corr },
         cols_of_occurrence ~corr def))
  in
  let from = List.map fst occs in
  let cols = List.concat_map snd occs in
  let where = where_pred rng cat cols in
  let distinct = if Random.State.int rng 5 < 3 then A.Distinct else A.All in
  if Random.State.float rng 1.0 < 0.15 then begin
    (* GROUP BY path: grouping columns + at most one aggregate; every
       non-aggregate select column must be a grouping column (engine rule) *)
    let group =
      let chosen = List.filter (fun _ -> Random.State.bool rng) cols in
      (match chosen with [] -> [ pick rng cols ] | cs -> cs)
      |> List.map (fun c -> A.Col c.attr)
    in
    let agg =
      match Random.State.int rng 3 with
      | 0 -> [ A.Agg (A.Count, None) ]
      | 1 ->
        (match List.filter (fun c -> c.ctype = R.Tint) cols with
         | [] -> [ A.Agg (A.Count, None) ]
         | ints -> [ A.Agg (A.Sum, Some (A.Col (pick rng ints).attr)) ])
      | _ -> []
    in
    { A.distinct; select = A.Cols (group @ agg); from; where; group_by = group;
      order_by = [] }
  end
  else
    let select =
      if Random.State.float rng 1.0 < 0.15 then A.Star
      else
        let chosen = List.filter (fun _ -> Random.State.bool rng) cols in
        let chosen = match chosen with [] -> [ pick rng cols ] | cs -> cs in
        A.Cols (List.map (fun c -> A.Col c.attr) chosen)
    in
    A.plain_spec ~distinct ~select ~from ~where ()

let spec ~rng cat =
  if Random.State.float rng 1.0 < 0.12 then
    match fk_join_spec rng cat with
    | Some s -> s
    | None -> generic_spec ~rng cat
  else generic_spec ~rng cat

(* Adversarial shape for the normalization clause budget: an OR of [width]
   two-literal conjunctions whose atoms are pairwise distinct (fresh
   constants from a counter), so distributing into CNF needs 2^width
   distinct clauses — no dedup or subsumption rescues it. Widths past
   log2 of the budget force Algorithm 1 onto its sound MAYBE path. A
   separate entry point: the default generator's RNG stream — and every
   seeded fuzz campaign — stays byte-identical. *)
let nested_or_spec ~rng ?(width = 14) cat =
  let def = pick rng (Catalog.tables cat) in
  let cols = cols_of_occurrence ~corr:"Q1" def in
  (* booleans admit only two distinct constants; avoid them when possible
     so every atom really is fresh *)
  let usable =
    match List.filter (fun c -> c.ctype <> R.Tbool) cols with
    | [] -> cols
    | cs -> cs
  in
  let fresh = ref 0 in
  let eq () =
    let c = pick rng usable in
    incr fresh;
    let v =
      match c.ctype with
      | R.Tint -> Value.Int (1000 + !fresh)
      | R.Tstring -> Value.String (Printf.sprintf "nv%d" !fresh)
      | R.Tfloat -> Value.Float (float_of_int (1000 + !fresh))
      | R.Tbool -> Value.Bool (!fresh mod 2 = 0)
    in
    A.Cmp (A.Eq, A.Col c.attr, A.Const v)
  in
  let where =
    match List.init width (fun _ -> A.And (eq (), eq ())) with
    | [] -> A.Ptrue
    | d :: ds -> List.fold_left (fun acc d' -> A.Or (acc, d')) d ds
  in
  let select =
    let chosen = List.filter (fun _ -> Random.State.bool rng) cols in
    let chosen = match chosen with [] -> [ pick rng cols ] | cs -> cs in
    A.Cols (List.map (fun c -> A.Col c.attr) chosen)
  in
  A.plain_spec ~distinct:A.Distinct ~select
    ~from:[ { A.table = def.Catalog.tbl_name; corr = Some "Q1" } ]
    ~where ()

(* single-table block projecting the (always-INT) first column — operands
   of set operations are union-compatible by construction *)
let setop_operand rng cat corr =
  let def = pick rng (Catalog.tables cat) in
  let cols = cols_of_occurrence ~corr def in
  let first = List.hd cols in
  let where = A.conj (List.init (Random.State.int rng 3) (fun _ -> atom rng cols ~depth:0)) in
  A.Spec
    (A.plain_spec
       ~distinct:(if Random.State.bool rng then A.Distinct else A.All)
       ~select:(A.Cols [ A.Col first.attr ])
       ~from:[ { A.table = def.Catalog.tbl_name; corr = Some corr } ]
       ~where ())

let query ~rng cat =
  if Random.State.float rng 1.0 < 0.15 then
    let op = if Random.State.bool rng then A.Intersect else A.Except in
    let d = if Random.State.bool rng then A.Distinct else A.All in
    A.Setop (op, d, setop_operand rng cat "Q1", setop_operand rng cat "Q2")
  else A.Spec (spec ~rng cat)
