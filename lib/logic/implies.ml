module Value = Sqlval.Value
module Truth = Sqlval.Truth

type column_constraint = {
  lo : Value.t option;
  hi : Value.t option;
  in_set : Value.t list option;
}

let unconstrained = { lo = None; hi = None; in_set = None }

let enumeration_limit = 1_000

let tighten_lo cur v =
  match cur with
  | None -> Some v
  | Some w -> if Value.compare_total v w > 0 then Some v else Some w

let tighten_hi cur v =
  match cur with
  | None -> Some v
  | Some w -> if Value.compare_total v w < 0 then Some v else Some w

let intersect_set cur vs =
  match cur with
  | None -> Some vs
  | Some ws -> Some (List.filter (fun w -> List.exists (Value.equal_null w) vs) ws)

(* Does this scalar reference exactly the column [col] (by name, any
   qualifier)? *)
let is_col ~col = function
  | Sql.Ast.Col a -> String.equal a.Schema.Attr.name (String.uppercase_ascii col)
  | Sql.Ast.Const _ | Sql.Ast.Host _ | Sql.Ast.Agg _ -> false

let constraint_for ~col checks =
  let col = String.uppercase_ascii col in
  let rec refine cstr conjunct =
    match conjunct with
    | Sql.Ast.Cmp (op, a, Sql.Ast.Const v) when is_col ~col a ->
      (match op with
       | Sql.Ast.Eq -> intersect_all cstr v
       | Sql.Ast.Ge -> { cstr with lo = tighten_lo cstr.lo v }
       | Sql.Ast.Gt ->
         (match v with
          | Value.Int i -> { cstr with lo = tighten_lo cstr.lo (Value.Int (i + 1)) }
          | _ -> cstr)
       | Sql.Ast.Le -> { cstr with hi = tighten_hi cstr.hi v }
       | Sql.Ast.Lt ->
         (match v with
          | Value.Int i -> { cstr with hi = tighten_hi cstr.hi (Value.Int (i - 1)) }
          | _ -> cstr)
       | Sql.Ast.Ne -> cstr)
    | Sql.Ast.Cmp (op, Sql.Ast.Const v, a) when is_col ~col a ->
      refine_flipped cstr op v
    | Sql.Ast.Between (a, Sql.Ast.Const lo, Sql.Ast.Const hi) when is_col ~col a ->
      { cstr with lo = tighten_lo cstr.lo lo; hi = tighten_hi cstr.hi hi }
    | Sql.Ast.In_list (a, vs) when is_col ~col a ->
      { cstr with in_set = intersect_set cstr.in_set vs }
    | _ -> cstr
  and intersect_all cstr v = { cstr with in_set = intersect_set cstr.in_set [ v ] }
  and refine_flipped cstr op v =
    let flipped = Sql.Ast.comparison_flip op in
    match flipped with
    | Sql.Ast.Eq -> intersect_all cstr v
    | Sql.Ast.Ge -> { cstr with lo = tighten_lo cstr.lo v }
    | Sql.Ast.Le -> { cstr with hi = tighten_hi cstr.hi v }
    | Sql.Ast.Gt ->
      (match v with
       | Value.Int i -> { cstr with lo = tighten_lo cstr.lo (Value.Int (i + 1)) }
       | _ -> cstr)
    | Sql.Ast.Lt ->
      (match v with
       | Value.Int i -> { cstr with hi = tighten_hi cstr.hi (Value.Int (i - 1)) }
       | _ -> cstr)
    | Sql.Ast.Ne -> cstr
  in
  List.fold_left
    (fun cstr check ->
      List.fold_left refine cstr (Sql.Ast.conjuncts check))
    unconstrained checks

(* values the constraint admits, when finitely enumerable *)
let enumerate cstr =
  match cstr.in_set with
  | Some vs ->
    let ok v =
      (match cstr.lo with
       | Some lo -> Value.compare_total v lo >= 0
       | None -> true)
      && (match cstr.hi with
          | Some hi -> Value.compare_total v hi <= 0
          | None -> true)
    in
    Some (List.filter ok vs)
  | None ->
    (match cstr.lo, cstr.hi with
     | Some (Value.Int lo), Some (Value.Int hi)
       when hi - lo + 1 >= 0 && hi - lo + 1 <= enumeration_limit ->
       Some (List.init (hi - lo + 1) (fun i -> Value.Int (lo + i)))
     | _ -> None)

(* [conjunct] compiled once as a test of the value of [col]; a reference
   to anything else fails every value *)
let compile_single ~col conjunct =
  let col = String.uppercase_ascii col in
  let holds =
    Eval.compile_pred
      {
        Eval.column =
          (fun a ->
            if String.equal a.Schema.Attr.name col then Fun.id
            else fun _ -> raise Exit);
        host = (fun _ -> raise Exit);
        exists = (fun _ _ -> raise Exit);
      }
      conjunct
  in
  fun v ->
    match holds v with
    | t -> Truth.is_true t
    | exception (Exit | Invalid_argument _) -> false

let implied cstr ~col conjunct =
  match enumerate cstr with
  | Some [] -> true  (* unsatisfiable constraint: vacuously implied *)
  | Some vs -> List.for_all (compile_single ~col conjunct) vs
  | None ->
    (* structural fallback for unbounded/large ranges *)
    let ge_lo x =
      match cstr.lo with
      | Some lo -> Value.compare_total lo x >= 0
      | None -> false
    in
    let le_hi x =
      match cstr.hi with
      | Some hi -> Value.compare_total hi x <= 0
      | None -> false
    in
    let gt_lo x =
      match cstr.lo with
      | Some lo -> Value.compare_total lo x > 0
      | None -> false
    in
    let lt_hi x =
      match cstr.hi with
      | Some hi -> Value.compare_total hi x < 0
      | None -> false
    in
    (match conjunct with
     | Sql.Ast.Cmp (op, a, Sql.Ast.Const v) when is_col ~col a ->
       (match op with
        | Sql.Ast.Ge -> ge_lo v
        | Sql.Ast.Gt -> gt_lo v
        | Sql.Ast.Le -> le_hi v
        | Sql.Ast.Lt -> lt_hi v
        | Sql.Ast.Ne -> gt_lo v || lt_hi v
        | Sql.Ast.Eq -> false)
     | Sql.Ast.Cmp (op, Sql.Ast.Const v, a) when is_col ~col a ->
       (match Sql.Ast.comparison_flip op with
        | Sql.Ast.Ge -> ge_lo v
        | Sql.Ast.Gt -> gt_lo v
        | Sql.Ast.Le -> le_hi v
        | Sql.Ast.Lt -> lt_hi v
        | Sql.Ast.Ne -> gt_lo v || lt_hi v
        | Sql.Ast.Eq -> false)
     | Sql.Ast.Between (a, Sql.Ast.Const lo, Sql.Ast.Const hi) when is_col ~col a ->
       ge_lo lo && le_hi hi
     | Sql.Ast.Is_not_null a when is_col ~col a ->
       (* only sound when the caller already knows the column is NOT NULL;
          the constraint itself speaks about non-null values *)
       false
     | _ -> false)
