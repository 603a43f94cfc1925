module Attr = Schema.Attr
module Value = Sqlval.Value
module Truth = Sqlval.Truth

type row = Value.t array

type counterexample = {
  instance : (string * row list) list;
  hosts : (string * Value.t) list;
  row1 : row;
  row2 : row;
}

type result =
  | Unique
  | Duplicable of counterexample
  | Unsupported of string

exception Too_large of int

(* ---- supported query class ---- *)

(* The checker handles the paper's query class: conjunctions/disjunctions of
   comparisons over columns, constants and host variables. EXISTS subqueries
   would need nested instance enumeration and aggregates/GROUP BY change the
   row multiplicity model, so both are reported as [Unsupported] rather than
   silently mis-checked. *)
let unsupported_reason (q : Sql.Ast.query_spec) =
  let scalar_agg = function
    | Sql.Ast.Agg _ -> true
    | Sql.Ast.Col _ | Sql.Ast.Const _ | Sql.Ast.Host _ -> false
  in
  let rec pred_feature (p : Sql.Ast.pred) =
    match p with
    | Sql.Ast.Ptrue | Sql.Ast.Pfalse -> None
    | Sql.Ast.Cmp (_, a, b) ->
      if scalar_agg a || scalar_agg b then Some "aggregate in a predicate" else None
    | Sql.Ast.Between (a, lo, hi) ->
      if scalar_agg a || scalar_agg lo || scalar_agg hi then
        Some "aggregate in a predicate"
      else None
    | Sql.Ast.In_list (a, _) | Sql.Ast.Is_null a | Sql.Ast.Is_not_null a ->
      if scalar_agg a then Some "aggregate in a predicate" else None
    | Sql.Ast.And (a, b) | Sql.Ast.Or (a, b) ->
      (match pred_feature a with None -> pred_feature b | some -> some)
    | Sql.Ast.Not a -> pred_feature a
    | Sql.Ast.Exists _ -> Some "EXISTS subquery"
  in
  if q.Sql.Ast.group_by <> [] then Some "GROUP BY"
  else
    match q.Sql.Ast.select with
    | Sql.Ast.Cols cs when List.exists scalar_agg cs ->
      Some "aggregate in the select list"
    | Sql.Ast.Star | Sql.Ast.Cols _ -> pred_feature q.Sql.Ast.where

(* ---- domain construction ---- *)

(* Fresh values are shared per type so that cross-column equalities
   (S.SNO = P.SNO) can be realized with fresh values. The pool must be as
   large as the number of cells of that type a counterexample can populate:
   a disequality chain (NOT C2 = C1 with the pair differing on C1) needs
   three distinct values, which the historical two-value pool could not
   represent — the search then claimed Unique unsoundly. [build_domains]
   computes the need per type and flags the domains incomplete when it
   exceeds [max_fresh]; an exhausted search over incomplete domains
   reports [Unsupported], never [Unique]. INT and FLOAT compare
   numerically, so they share one pool (the FLOAT values are the INT
   values as floats): an INT = FLOAT equality must be realizable. *)
let fresh_pool n = function
  | Schema.Relschema.Tint -> List.init n (fun i -> Value.Int (900001 + i))
  | Schema.Relschema.Tfloat ->
    List.init n (fun i -> Value.Float (float_of_int (900001 + i)))
  | Schema.Relschema.Tstring ->
    List.init n (fun i -> Value.String (Printf.sprintf "#V%d" (i + 1)))
  | Schema.Relschema.Tbool -> [ Value.Bool true; Value.Bool false ]

(* Constants a scalar is compared against, per column, with neighbours for
   range comparisons so that strict/boundary cases are representable. *)
let rec collect_constants acc (p : Sql.Ast.pred) =
  let scalar_pairs op a b acc =
    match a, b with
    | Sql.Ast.Col c, Sql.Ast.Const v | Sql.Ast.Const v, Sql.Ast.Col c ->
      let vs =
        match op, v with
        | Sql.Ast.Eq, _ | Sql.Ast.Ne, _ -> [ v ]
        | (Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt | Sql.Ast.Ge), Value.Int i ->
          [ Value.Int (i - 1); v; Value.Int (i + 1) ]
        | _, _ -> [ v ]
      in
      (c, vs) :: acc
    | _ -> acc
  in
  match p with
  | Sql.Ast.Ptrue | Sql.Ast.Pfalse -> acc
  | Sql.Ast.Cmp (op, a, b) -> scalar_pairs op a b acc
  | Sql.Ast.Between (a, lo, hi) ->
    let acc = scalar_pairs Sql.Ast.Ge a lo acc in
    scalar_pairs Sql.Ast.Le a hi acc
  | Sql.Ast.In_list (a, vs) ->
    (match a with
     | Sql.Ast.Col c -> (c, vs) :: acc
     | _ -> acc)
  | Sql.Ast.Is_null _ | Sql.Ast.Is_not_null _ -> acc
  | Sql.Ast.And (a, b) | Sql.Ast.Or (a, b) ->
    collect_constants (collect_constants acc a) b
  | Sql.Ast.Not a -> collect_constants acc a
  | Sql.Ast.Exists _ -> acc (* unreachable: [check] rejects EXISTS upfront *)

(* Role of a column decides its domain: columns appearing in keys,
   predicates, or CHECK constraints need rich domains; pure-projection (or
   entirely unused) columns can be pinned to one value without losing
   counterexamples (values can always be relabeled). *)
type role = Rich | Pinned

let max_domain = 16

(* Fresh values the pool can afford per type; a query whose counterexamples
   may need more distinct values than this is reported [Unsupported]. *)
let max_fresh = 8

let build_domains cat (q : Sql.Ast.query_spec) =
  let resolve = Fd.Derive.resolver cat q.from in
  let pred_consts =
    List.map (fun (c, vs) -> (resolve c, vs)) (collect_constants [] q.where)
  in
  let rec pred_cols acc (p : Sql.Ast.pred) =
    let of_scalar acc = function
      | Sql.Ast.Col c -> Attr.Set.add (resolve c) acc
      | Sql.Ast.Const _ | Sql.Ast.Host _ | Sql.Ast.Agg _ -> acc
    in
    match p with
    | Sql.Ast.Ptrue | Sql.Ast.Pfalse -> acc
    | Sql.Ast.Cmp (_, a, b) -> of_scalar (of_scalar acc a) b
    | Sql.Ast.Between (a, lo, hi) -> of_scalar (of_scalar (of_scalar acc a) lo) hi
    | Sql.Ast.In_list (a, _) | Sql.Ast.Is_null a | Sql.Ast.Is_not_null a ->
      of_scalar acc a
    | Sql.Ast.And (a, b) | Sql.Ast.Or (a, b) -> pred_cols (pred_cols acc a) b
    | Sql.Ast.Not a -> pred_cols acc a
    | Sql.Ast.Exists _ -> acc (* unreachable: [check] rejects EXISTS upfront *)
  in
  let used_in_pred = pred_cols Attr.Set.empty q.where in
  (* per table occurrence: schema, check constants and check columns *)
  let occurrences =
    List.map
      (fun (f : Sql.Ast.from_item) ->
        let def = Catalog.find_exn cat f.table in
        let corr = Sql.Ast.from_name f in
        let schema = Schema.Relschema.rename_rel corr def.Catalog.tbl_schema in
        let requalify (a : Attr.t) = Attr.make ~rel:corr ~name:a.Attr.name in
        let check_consts =
          List.concat_map
            (fun check ->
              List.map
                (fun (c, vs) ->
                  (* check predicates reference bare or table-qualified
                     columns; requalify by correlation name *)
                  (requalify c, vs))
                (collect_constants [] check))
            def.Catalog.tbl_checks
        in
        let check_cols =
          List.fold_left
            (fun acc check ->
              List.fold_left
                (fun acc (c, _) -> Attr.Set.add (requalify c) acc)
                (* also columns used without constants: approximate by
                   collecting all column refs *)
                acc
                (collect_constants [] check))
              Attr.Set.empty def.Catalog.tbl_checks
        in
        let key_cols =
          List.fold_left
            (fun acc k ->
              List.fold_left
                (fun acc a -> Attr.Set.add a acc)
                acc
                (Catalog.key_attrs ~corr k))
            Attr.Set.empty def.Catalog.tbl_keys
        in
        let role a =
          if Attr.Set.mem a key_cols || Attr.Set.mem a used_in_pred
             || Attr.Set.mem a check_cols
          then Rich
          else Pinned
        in
        (corr, schema, def, check_consts, role))
      q.from
  in
  let type_of_attr a =
    List.find_map
      (fun (_, schema, _, _, _) ->
        match Schema.Relschema.find_index schema a with
        | Some i ->
          Some (List.nth (Schema.Relschema.columns schema) i).Schema.Relschema.ctype
        | None -> None)
      occurrences
  in
  (* How many distinct fresh values of each type a counterexample can be
     forced to use: two per distinct column appearing in a
     column-to-column or column-to-host atom that is strict under its
     polarity (Ne, Lt, Gt, or a negated Eq/Le/Ge/Between) — those atoms
     couple cells, so their values cannot be collapsed onto a shared
     pair. Everything else
     (equalities, comparisons against constants, key disagreement — each
     key column can reuse the same two values) is realizable over the
     two-value base pool. A disequality chain like [NOT C2 = C1] with
     the pair differing on the key C1 needs three distinct values, which
     the old fixed pool of two could not represent: the search then
     exhausted its domains and claimed Unique unsoundly. *)
  let strict_cols = ref Attr.Set.empty in
  let count_col c = strict_cols := Attr.Set.add (resolve c) !strict_cols in
  let strict_cc neg op a b =
    let strict =
      match op, neg with
      | (Sql.Ast.Ne | Sql.Ast.Lt | Sql.Ast.Gt), false -> true
      | (Sql.Ast.Eq | Sql.Ast.Le | Sql.Ast.Ge), true -> true
      | _ -> false
    in
    match a, b with
    | Sql.Ast.Col ca, Sql.Ast.Col cb when strict ->
      count_col ca;
      count_col cb
    | (Sql.Ast.Col ca, Sql.Ast.Host _ | Sql.Ast.Host _, Sql.Ast.Col ca)
      when strict ->
      (* a host is one more shared cell coupled to the column: NOT C = :H
         with C a key needs the host outside the column's pair *)
      count_col ca
    | _ -> ()
  in
  let rec count_pred neg (p : Sql.Ast.pred) =
    match p with
    | Sql.Ast.Ptrue | Sql.Ast.Pfalse -> ()
    | Sql.Ast.Cmp (op, a, b) -> strict_cc neg op a b
    | Sql.Ast.Between (a, lo, hi) ->
      (* NOT BETWEEN is a strict disjunction a < lo OR a > hi *)
      strict_cc neg Sql.Ast.Ge a lo;
      strict_cc neg Sql.Ast.Le a hi
    | Sql.Ast.In_list _ | Sql.Ast.Is_null _ | Sql.Ast.Is_not_null _ -> ()
    | Sql.Ast.And (a, b) | Sql.Ast.Or (a, b) -> count_pred neg a; count_pred neg b
    | Sql.Ast.Not a -> count_pred (not neg) a
    | Sql.Ast.Exists _ -> ()
  in
  count_pred false q.where;
  (* INT and FLOAT cells draw on one numeric pool *)
  let pool_class = function
    | Schema.Relschema.Tfloat -> Schema.Relschema.Tint
    | ty -> ty
  in
  let cells = Hashtbl.create 4 in
  Attr.Set.iter
    (fun a ->
      match Option.map pool_class (type_of_attr a) with
      | Some ty ->
        Hashtbl.replace cells ty
          (2 + Option.value ~default:0 (Hashtbl.find_opt cells ty))
      | None -> ())
    !strict_cols;
  let complete = ref true in
  let pool_of_type ty =
    (* two base values (key pairs, hosts) plus two per coupled column *)
    let need =
      2 + Option.value ~default:0 (Hashtbl.find_opt cells (pool_class ty))
    in
    let n =
      match ty with
      | Schema.Relschema.Tbool -> 2
      | _ ->
        if need > max_fresh then begin
          complete := false;
          max_fresh
        end
        else need
    in
    fresh_pool n ty
  in
  (* Constants transfer across equality-connected columns: with
     C1 = C2 AND C2 = 5 the value 5 must be available in C1's domain
     even though only C2 is compared against it. Hosts mediate equality
     the same way — C1 = :H AND C3 = :H couples C1 and C3 — so they join
     the union-find as pseudo-attributes. Any polarity: extra constants
     only enlarge a domain, never unsoundly shrink it. *)
  let all_attr_consts =
    pred_consts
    @ List.concat_map (fun (_, _, _, cc, _) -> cc) occurrences
  in
  let host_attr h = Attr.make ~rel:"%host" ~name:h in
  let eq_pairs = ref [] in
  let rec eq_atoms (p : Sql.Ast.pred) =
    match p with
    | Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Col a, Sql.Ast.Col b) ->
      eq_pairs := (resolve a, resolve b) :: !eq_pairs
    | Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Col a, Sql.Ast.Host h)
    | Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Host h, Sql.Ast.Col a) ->
      eq_pairs := (resolve a, host_attr h) :: !eq_pairs
    | Sql.Ast.And (a, b) | Sql.Ast.Or (a, b) -> eq_atoms a; eq_atoms b
    | Sql.Ast.Not a -> eq_atoms a
    | _ -> ()
  in
  eq_atoms q.where;
  let eq_class =
    (* tiny union-find over the attrs that appear in consts or eq atoms *)
    let reps = Hashtbl.create 8 in
    let rec find a =
      match Hashtbl.find_opt reps a with
      | Some b when not (Attr.equal a b) -> find b
      | _ -> a
    in
    List.iter
      (fun (a, b) ->
        let ra = find a and rb = find b in
        if not (Attr.equal ra rb) then Hashtbl.replace reps ra rb)
      !eq_pairs;
    find
  in
  let consts_for a =
    let ra = eq_class a in
    List.concat_map
      (fun (c, vs) -> if Attr.equal (eq_class c) ra then vs else [])
      all_attr_consts
  in
  let per_table =
    List.map
      (fun (corr, schema, def, _, role) ->
        let domain (col : Schema.Relschema.column) =
          let ty = col.Schema.Relschema.ctype in
          match role col.Schema.Relschema.attr with
          | Pinned -> [ List.hd (fresh_pool 1 ty) ]
          | Rich ->
            let base = consts_for col.Schema.Relschema.attr @ pool_of_type ty in
            let base =
              if col.Schema.Relschema.nullable then Value.Null :: base
              else base
            in
            let dedup = List.sort_uniq Value.compare_total base in
            if List.length dedup > max_domain then begin
              complete := false;
              let rec take n = function
                | [] -> []
                | x :: xs -> if n = 0 then [] else x :: take (n - 1) xs
              in
              take max_domain dedup
            end
            else dedup
        in
        (corr, schema, def, List.map domain (Schema.Relschema.columns schema)))
      occurrences
  in
  (per_table, !complete)

(* All tuples over the column domains. *)
let enumerate_tuples domains =
  let rec go = function
    | [] -> [ [] ]
    | d :: rest ->
      let tails = go rest in
      List.concat_map (fun v -> List.map (fun t -> v :: t) tails) d
  in
  List.map Array.of_list (go domains)

let rows_equal (a : row) (b : row) =
  let n = Array.length a in
  let rec go i = i >= n || (Value.equal_null a.(i) b.(i) && go (i + 1)) in
  go 0

(* validity of a single tuple w.r.t. its table: CHECK constraints not false,
   primary-key columns non-null *)
let tuple_valid (schema : Schema.Relschema.t) (def : Catalog.table_def) corr row =
  let lookup_col (a : Attr.t) =
    (* checks may use bare or base-table-qualified names *)
    let a' = Attr.make ~rel:corr ~name:a.Attr.name in
    match Schema.Relschema.find_index schema a' with
    | Some i -> row.(i)
    | None -> raise (Logic.Eval.Unbound_column a)
  in
  let checks_ok =
    List.for_all
      (fun check ->
        Truth.is_not_false
          (Logic.Eval.eval_pred_simple ~lookup_col
             ~lookup_host:(fun h -> raise (Logic.Eval.Unbound_host h))
             check))
      def.Catalog.tbl_checks
  in
  checks_ok
  && List.for_all
       (fun (k : Catalog.key) ->
         (not k.Catalog.key_primary)
         || List.for_all
              (fun a ->
                let i = Schema.Relschema.index_of schema a in
                not (Value.is_null row.(i)))
              (Catalog.key_attrs ~corr k))
       def.Catalog.tbl_keys

(* A two-tuple instance {t, t'} is valid iff both tuples are valid and, when
   distinct, they disagree on every candidate key (uniqueness with nulls
   equal, SQL2-style). *)
let pair_valid schema def corr t t' =
  rows_equal t t'
  || List.for_all
       (fun (k : Catalog.key) ->
         List.exists
           (fun a ->
             let i = Schema.Relschema.index_of schema a in
             not (Value.equal_null t.(i) t'.(i)))
           (Catalog.key_attrs ~corr k))
       def.Catalog.tbl_keys

let host_domains cat (q : Sql.Ast.query_spec) =
  let hosts = Sql.Ast.hosts_of_query_spec q in
  let resolve = Fd.Derive.resolver cat q.from in
  (* a host's domain: values of the columns it is compared against *)
  let rec host_cols acc (p : Sql.Ast.pred) =
    match p with
    | Sql.Ast.Cmp (_, Sql.Ast.Col c, Sql.Ast.Host h)
    | Sql.Ast.Cmp (_, Sql.Ast.Host h, Sql.Ast.Col c) -> (h, resolve c) :: acc
    | Sql.Ast.And (a, b) | Sql.Ast.Or (a, b) -> host_cols (host_cols acc a) b
    | Sql.Ast.Not a -> host_cols acc a
    | Sql.Ast.Between (a, lo, hi) ->
      let pairs x y acc =
        match x, y with
        | Sql.Ast.Col c, Sql.Ast.Host h | Sql.Ast.Host h, Sql.Ast.Col c ->
          (h, resolve c) :: acc
        | _ -> acc
      in
      pairs a lo (pairs a hi acc)
    | _ -> acc
  in
  let pairs = host_cols [] q.where in
  (hosts, pairs)

(* Upper bound on raw tuple enumeration per table (before validity and
   projection-agreement pruning); the real combination guard runs after
   pruning, against [max_cells]. *)
let max_tuples_per_table = 200_000

let search_space_of domains_per_table host_dom_sizes =
  let tuple_space =
    List.fold_left
      (fun acc (_, _, _, doms) ->
        let per_table =
          List.fold_left (fun acc d -> acc * List.length d) 1 doms
        in
        (* pairs of tuples *)
        acc * per_table * per_table)
      1 domains_per_table
  in
  List.fold_left ( * ) tuple_space host_dom_sizes

let check ?(max_cells = 2_000_000) ?(max_pairs = max_int) cat
    (q : Sql.Ast.query_spec) =
  match unsupported_reason q with
  | Some reason -> Unsupported reason
  | None ->
  let per_table, domains_complete = build_domains cat q in
  let hosts, host_col_pairs = host_domains cat q in
  (* host domain: union of domains of the columns it is compared with *)
  let domain_of_attr a =
    List.concat_map
      (fun (_, schema, _, doms) ->
        match Schema.Relschema.find_index schema a with
        | Some i -> List.nth doms i
        | None -> [])
      per_table
  in
  let host_doms =
    List.map
      (fun h ->
        let cols = List.filter_map (fun (h', c) -> if h = h' then Some c else None) host_col_pairs in
        let dom =
          List.sort_uniq Value.compare_total
            (List.concat_map domain_of_attr cols)
        in
        let dom = List.filter (fun v -> not (Value.is_null v)) dom in
        (* Host bindings are untyped (the fuzzer binds small ints against
           bool and string columns alike) and cross-type comparisons are
           definite under [compare_total], so a host can sit outside its
           column's type entirely: NOT C = :H over a BOOLEAN key is
           satisfied by every row when :H is an int. Two alien values —
           below and above every generated constant and fresh value —
           cover the "differs from / orders beyond everything" cases. *)
        let dom =
          dom @ [ Value.Int (-900_001); Value.Int 900_900_901 ]
        in
        (h, dom))
      hosts
  in
  (* guard the raw per-table enumeration ... *)
  List.iter
    (fun (_, _, _, doms) ->
      let space = List.fold_left (fun acc d -> acc * List.length d) 1 doms in
      if space > max_tuples_per_table then raise (Too_large space))
    per_table;
  (* candidate pairs per table, pruned by: validity, pair validity, and
     agreement on the table's share of the projection attributes *)
  let projection = Fd.Derive.projection_attrs cat q in
  let pairs_per_table =
    List.map
      (fun (corr, schema, def, doms) ->
        let proj_idx =
          List.filter_map (Schema.Relschema.find_index schema) projection
        in
        let tuples =
          List.filter (tuple_valid schema def corr) (enumerate_tuples doms)
        in
        (* Paired tuples must agree on the table's share of the projection,
           so bucket the tuples by those values -- compare_total is zero
           exactly when equal_null holds, the test the naive double loop
           applied per pair -- and pair only within a bucket. The pair
           order is exactly the naive loop's (the inner iteration merely
           skips the non-agreeing tuples upfront), and the bucketed pair
           count is charged against max_pairs *before* the quadratic work
           runs: the max_cells budget only starts at the combination
           search below, so without this guard a constant-rich predicate
           can spend minutes here while every later stage is bounded. *)
        let module VMap = Map.Make (struct
          type t = Value.t list

          let compare = List.compare Value.compare_total
        end) in
        let bucket_key t = List.map (fun i -> t.(i)) proj_idx in
        let buckets =
          VMap.map List.rev
            (List.fold_left
               (fun m t ->
                 VMap.update (bucket_key t)
                   (fun b -> Some (t :: Option.value ~default:[] b))
                   m)
               VMap.empty tuples)
        in
        let pair_work =
          VMap.fold
            (fun _ b acc ->
              let n = List.length b in
              acc + (n * n))
            buckets 0
        in
        if pair_work > max_pairs then raise (Too_large pair_work);
        let pairs = ref [] in
        List.iter
          (fun t ->
            List.iter
              (fun t' ->
                if pair_valid schema def corr t t' then
                  pairs := (t, t') :: !pairs)
              (VMap.find (bucket_key t) buckets))
          tuples;
        (* try genuinely distinct pairs first: a counterexample needs at
           least one table where the two tuples differ, so this ordering
           finds witnesses early in large spaces *)
        let diff, same =
          List.partition (fun (t, t') -> not (rows_equal t t')) (List.rev !pairs)
        in
        (corr, schema, diff @ same))
      per_table
  in
  (* The combination budget is charged as the search runs, so a counter-
     example found early escapes the guard even when the full space is
     large; only a completed (exhaustive) search can conclude Unique. *)
  let leaves = ref 0 in
  let charge () =
    incr leaves;
    if !leaves > max_cells then raise (Too_large !leaves)
  in
  (* full product schema, for predicate evaluation over concatenated rows *)
  let schemas = List.map (fun (_, s, _) -> s) pairs_per_table in
  let product_schema =
    match schemas with
    | [] -> Schema.Relschema.make []
    | s :: rest -> List.fold_left Schema.Relschema.product s rest
  in
  let proj_idx_full =
    List.map (Schema.Relschema.index_of product_schema) projection
  in
  let eval_where hrow bindings =
    let lookup_col a =
      match Schema.Relschema.find_index product_schema a with
      | Some i -> bindings.(i)
      | None -> raise (Logic.Eval.Unbound_column a)
    in
    let lookup_host h =
      match List.assoc_opt h hrow with
      | Some v -> v
      | None -> raise (Logic.Eval.Unbound_host h)
    in
    Truth.is_true (Logic.Eval.eval_pred_simple ~lookup_col ~lookup_host q.where)
  in
  (* enumerate host assignments *)
  let rec host_assignments = function
    | [] -> [ [] ]
    | (h, dom) :: rest ->
      let tails = host_assignments rest in
      List.concat_map (fun v -> List.map (fun t -> (h, v) :: t) tails) dom
  in
  (* A table with no candidate key can hold the same row twice, so a
     chosen pair with t = t' still yields output duplicates there: the
     instance materializes the row with multiplicity 2 and every product
     row inherits it. Tables with a key need t <> t' (the set model is
     complete for them: two distinct rows must disagree on the key, and
     key columns are always Rich). *)
  let keyless =
    List.filter_map
      (fun (corr, _, def, _) ->
        if def.Catalog.tbl_keys = [] then Some corr else None)
      per_table
  in
  let dup_ok corr = List.mem corr keyless in
  let found = ref None in
  (try
     List.iter
       (fun hrow ->
         (* choose one (t, t') pair per table *)
         let rec choose acc = function
           | [] ->
             charge ();
             let chosen = List.rev acc in
             let some_diff =
               List.exists
                 (fun (corr, (t, t')) ->
                   (not (rows_equal t t')) || dup_ok corr)
                 chosen
             in
             if some_diff then begin
               let r1 =
                 Array.concat (List.map (fun (_, (t, _)) -> t) chosen)
               in
               let r2 =
                 Array.concat (List.map (fun (_, (_, t')) -> t') chosen)
               in
               if eval_where hrow r1 && eval_where hrow r2 then begin
                 let project (r : row) =
                   Array.of_list (List.map (fun i -> r.(i)) proj_idx_full)
                 in
                 let instance =
                   List.map
                     (fun (corr, (t, t')) ->
                       ( corr,
                         if rows_equal t t' then
                           if dup_ok corr then [ t; t ] else [ t ]
                         else [ t; t' ] ))
                     chosen
                 in
                 found :=
                   Some
                     {
                       instance;
                       hosts = hrow;
                       row1 = project r1;
                       row2 = project r2;
                     };
                 raise Exit
               end
             end
           | (corr, _, pairs) :: rest ->
             List.iter (fun pr -> choose ((corr, pr) :: acc) rest) pairs
         in
         choose [] pairs_per_table)
       (host_assignments host_doms)
   with Exit -> ());
  match !found with
  | Some ce -> Duplicable ce
  | None ->
    (* Only a completed search over complete domains proves uniqueness;
       a capped fresh pool or truncated domain may have hidden the
       counterexample. *)
    if domains_complete then Unique
    else Unsupported "domains truncated; search not exhaustive"

let search_space cat q =
  let per_table, _ = build_domains cat q in
  let hosts, _ = host_domains cat q in
  search_space_of per_table (List.map (fun _ -> 2) hosts)

let pp_result ppf = function
  | Unique -> Format.fprintf ppf "unique (no duplicate-producing instance)"
  | Unsupported reason ->
    Format.fprintf ppf "unsupported query (%s)" reason
  | Duplicable ce ->
    Format.fprintf ppf "@[<v>duplicable; witness:@,";
    List.iter
      (fun (corr, rows) ->
        Format.fprintf ppf "  %s:@," corr;
        List.iter
          (fun r ->
            Format.fprintf ppf "    (%s)@,"
              (String.concat ", "
                 (Array.to_list (Array.map Value.to_string r))))
          rows)
      ce.instance;
    if ce.hosts <> [] then
      Format.fprintf ppf "  hosts: %s@,"
        (String.concat ", "
           (List.map
              (fun (h, v) -> ":" ^ h ^ "=" ^ Value.to_string v)
              ce.hosts));
    Format.fprintf ppf "  duplicate row: (%s)@]"
      (String.concat ", "
         (Array.to_list (Array.map Value.to_string ce.row1)))
