module Attr = Schema.Attr

type rhs =
  | Const of Sqlval.Value.t
  | Host of string

type t =
  | Type1 of Attr.t * rhs
  | Type2 of Attr.t * Attr.t

let of_literal = function
  | Sql.Ast.Cmp (Sql.Ast.Eq, a, b) ->
    (match a, b with
     | Sql.Ast.Col x, Sql.Ast.Col y -> Some (Type2 (x, y))
     | Sql.Ast.Col x, Sql.Ast.Const v | Sql.Ast.Const v, Sql.Ast.Col x ->
       Some (Type1 (x, Const v))
     | Sql.Ast.Col x, Sql.Ast.Host h | Sql.Ast.Host h, Sql.Ast.Col x ->
       Some (Type1 (x, Host h))
     | _ -> None)
  | _ -> None

let split literals =
  List.fold_right
    (fun lit (eqs, rest) ->
      match of_literal lit with
      | Some e -> (e :: eqs, rest)
      | None -> (eqs, lit :: rest))
    literals ([], [])

let pp ppf = function
  | Type1 (a, Const v) ->
    Format.fprintf ppf "%a = %s" Attr.pp a (Sqlval.Value.to_string v)
  | Type1 (a, Host h) -> Format.fprintf ppf "%a = :%s" Attr.pp a h
  | Type2 (a, b) -> Format.fprintf ppf "%a = %a" Attr.pp a Attr.pp b

(* Encode the equality semantics as saturation pairs: a Type-1 condition
   binds its column unconditionally (empty lhs always fires), a Type-2
   condition propagates bound-ness both ways. *)
module Closure = Cache.Dependency_closure.Make (struct
  type dep = t

  let tag = 'E'

  let encode eq =
    let module B = Cache.Bitset in
    let id a = Cache.Interner.id a in
    match eq with
    | Type1 (a, _) -> [ (B.empty, B.singleton (id a)) ]
    | Type2 (a, b) ->
      [ (B.singleton (id a), B.singleton (id b));
        (B.singleton (id b), B.singleton (id a)) ]
end)

(* [bound] holds the one column the firing pair of [eq] acquired. *)
let narrate trace eq bound =
  let rule, detail =
    match eq with
    | Type1 _ ->
      ("closure.type1", "Type-1 equality binds the column for the whole execution")
    | Type2 _ ->
      ("closure.type2", "Type-2 equality propagates bound-ness transitively")
  in
  Attr.Set.iter
    (fun a ->
      Trace.emitf trace (fun () ->
          Trace.node ~rule
            ~inputs:[ ("condition", Format.asprintf "%a" pp eq) ]
            ~facts:[ ("bound", Attr.to_string a) ]
            detail))
    bound

let closure ?(trace = Trace.disabled) seed eqs =
  Cache.Counters.record_call ();
  if Trace.enabled trace then Closure.closure ~on_step:(narrate trace) eqs seed
  else Closure.closure eqs seed

module Classes = struct
  (* Union-find over attributes, with a constant binding per class. *)
  type classes = {
    parent : (Attr.t, Attr.t) Hashtbl.t;
    bindings : (Attr.t, rhs) Hashtbl.t;  (* keyed by root *)
  }

  let rec find c a =
    match Hashtbl.find_opt c.parent a with
    | None -> a
    | Some p when Attr.equal p a -> a
    | Some p ->
      let root = find c p in
      Hashtbl.replace c.parent a root;
      root

  let union c a b =
    let ra = find c a and rb = find c b in
    if not (Attr.equal ra rb) then begin
      Hashtbl.replace c.parent ra rb;
      (* migrate binding *)
      match Hashtbl.find_opt c.bindings ra with
      | Some v when Hashtbl.find_opt c.bindings rb = None ->
        Hashtbl.replace c.bindings rb v
      | _ -> ()
    end

  let build eqs =
    let c = { parent = Hashtbl.create 16; bindings = Hashtbl.create 16 } in
    let touch a =
      if Hashtbl.find_opt c.parent a = None then Hashtbl.replace c.parent a a
    in
    List.iter
      (function
        | Type2 (a, b) -> touch a; touch b; union c a b
        | Type1 (a, v) ->
          touch a;
          let r = find c a in
          if Hashtbl.find_opt c.bindings r = None then Hashtbl.replace c.bindings r v)
      eqs;
    (* re-anchor bindings at current roots *)
    let rebound = Hashtbl.create 16 in
    Hashtbl.iter (fun a v -> Hashtbl.replace rebound (find c a) v) c.bindings;
    { c with bindings = rebound }

  let groups c =
    let tbl = Hashtbl.create 16 in
    Hashtbl.iter
      (fun a _ ->
        let r = find c a in
        let cur = Option.value ~default:[] (Hashtbl.find_opt tbl r) in
        Hashtbl.replace tbl r (a :: cur))
      c.parent;
    Hashtbl.fold (fun _ members acc -> List.sort Attr.compare members :: acc) tbl []

  let binding c a =
    if Hashtbl.find_opt c.parent a = None then None
    else Hashtbl.find_opt c.bindings (find c a)

  let representative = find

  let same c a b =
    Hashtbl.find_opt c.parent a <> None
    && Hashtbl.find_opt c.parent b <> None
    && Attr.equal (find c a) (find c b)
end
