open Sql.Ast

(* [p OR s IS NULL] for each operand [s] that may be NULL at run time (a
   constant never is, unless it is the NULL constant, which makes the
   negated atom true outright). *)
let or_null p operands =
  if
    List.exists
      (function Const v -> Sqlval.Value.is_null v | _ -> false)
      operands
  then Ptrue
  else
    disj
      (p
       :: List.filter_map
            (function Const _ -> None | s -> Some (Is_null s))
            operands)

let rec pos = function
  | (Ptrue | Pfalse | Cmp _ | Between _ | In_list _ | Is_null _
    | Is_not_null _) as p ->
    p
  | And (a, b) -> And (pos a, pos b)
  | Or (a, b) -> Or (pos a, pos b)
  | Not a -> neg a
  | Exists q -> Exists (spec q)

and neg = function
  | Ptrue -> Pfalse
  | Pfalse -> Ptrue
  | Cmp (op, a, b) -> or_null (Cmp (comparison_negate op, a, b)) [ a; b ]
  | Between (a, lo, hi) ->
    or_null (Or (Cmp (Lt, a, lo), Cmp (Gt, a, hi))) [ a; lo; hi ]
  | In_list (a, vs) ->
    (match List.filter (fun v -> not (Sqlval.Value.is_null v)) vs with
     | [] -> Ptrue
     | vs -> or_null (conj (List.map (fun v -> Cmp (Ne, a, Const v)) vs)) [ a ])
  | Is_null a -> Is_not_null a
  | Is_not_null a -> Is_null a
  | And (a, b) -> Or (neg a, neg b)
  | Or (a, b) -> And (neg a, neg b)
  | Not a -> pos a
  | Exists q -> Not (Exists (spec q))

and spec q = { q with where = pos q.where }

let pred = pos

let rec query = function
  | Spec q -> Spec (spec q)
  | Setop (op, d, a, b) -> Setop (op, d, query a, query b)
