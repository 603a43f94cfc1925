module Attr = Schema.Attr
open Sql.Ast

type analyzer =
  | Algorithm1
  | Fd_closure

type outcome = {
  applied : bool;
  rule : string;
  citation : string option;
  justification : string;
  result : Sql.Ast.query;
}

(* Paper result justifying each rule, keyed by the (stable) rule name. *)
let citation_of_rule = function
  | "distinct-removal (Theorem 1)" -> Some "Theorem 1"
  | "group-by removal (section 8 extension)" -> Some "section 8 (future work)"
  | "subquery-to-join (Theorem 2 / Corollary 1)" ->
    Some "Theorem 2 / Corollary 1"
  | "join-to-subquery (section 6)" -> Some "section 6"
  | "predicate pruning (table constraints)" -> Some "section 2.1"
  | "join-elimination (inclusion dependencies)" ->
    Some "section 8 (future work, after King)"
  | "intersect-to-exists (Theorem 3 / Corollary 2)" ->
    Some "Theorem 3 / Corollary 2"
  | "except-to-not-exists (section 5.3 extension)" ->
    Some "section 5.3 (extension)"
  | _ -> None

let unchanged ?citation rule justification result =
  let citation =
    match citation with Some _ as c -> c | None -> citation_of_rule rule
  in
  { applied = false; rule; citation; justification; result }

let applied ?citation rule justification result =
  let citation =
    match citation with Some _ as c -> c | None -> citation_of_rule rule
  in
  { applied = true; rule; citation; justification; result }

(* The stable rule names carry a parenthesized annotation ("distinct-removal
   (Theorem 1)"); in a trace node the citation field plays that role, so we
   render the bare rule name to avoid printing the provenance twice. *)
let bare_rule_name rule =
  match String.rindex_opt rule '(' with
  | Some i when i > 0 && rule.[i - 1] = ' ' && rule.[String.length rule - 1] = ')'
    -> String.sub rule 0 (i - 1)
  | _ -> rule

let node_of_outcome ?(children = []) (o : outcome) =
  Trace.node ~rule:(bare_rule_name o.rule)
    ?citation:o.citation
    ~verdict:(if o.applied then Trace.Applied else Trace.Not_applied)
    ~facts:
      (if o.applied then [ ("result", Sql.Pretty.query o.result) ] else [])
    ~children o.justification

let spec_is_unique ?cache ?trace analyzer cat spec =
  match analyzer with
  | Algorithm1 -> Algorithm1.distinct_is_redundant ?cache ?trace cat spec
  | Fd_closure -> Fd_analysis.distinct_is_redundant ?cache ?trace cat spec

(* A query-spec operand is duplicate-free if it says DISTINCT or if the
   uniqueness condition holds for its projection. *)
let operand_is_duplicate_free ?cache cat spec =
  spec.distinct = Distinct || Fd_analysis.distinct_is_redundant ?cache cat spec

(* ---- name hygiene ---- *)

(* Rename correlation names in [sub] that clash with [used]; returns the
   renamed spec. Column references are rewritten along. *)
let freshen_names ~used (sub : query_spec) =
  let used = ref used in
  let renames =
    List.filter_map
      (fun f ->
        let name = from_name f in
        if List.mem name !used then begin
          let rec pick i =
            let cand = Printf.sprintf "%s_%d" name i in
            if List.mem cand !used then pick (i + 1) else cand
          in
          let fresh = pick 1 in
          used := fresh :: !used;
          Some (name, fresh)
        end
        else begin
          used := name :: !used;
          None
        end)
      sub.from
  in
  if renames = [] then sub
  else
    let map_attr (a : Attr.t) =
      match List.assoc_opt a.Attr.rel renames with
      | Some fresh -> Attr.make ~rel:fresh ~name:a.Attr.name
      | None -> a
    in
    {
      sub with
      from =
        List.map
          (fun f ->
            match List.assoc_opt (from_name f) renames with
            | Some fresh -> { f with corr = Some fresh }
            | None -> f)
          sub.from;
      where = map_cols map_attr sub.where;
    }

(* Qualify every column reference: inner FROM list first, then the outer
   one (mirroring the engine's innermost-first scoping), so that merged
   queries contain no ambiguous bare references. A nested [EXISTS] opens a
   further scope — its own FROM list shadows the enclosing ones, so its
   local columns must not be resolved against (or reported as unknown in)
   the outer product schema. *)
let qualify_pred cat ~inner ~outer p =
  let scopes0 =
    List.map (Fd.Derive.resolver cat)
      (inner :: (if outer = [] then [] else [ outer ]))
  in
  let resolve scopes a =
    let rec go = function
      | [] -> raise (Fd.Derive.Unknown_column a)
      | r :: rest ->
        (match r a with
         | qualified -> qualified
         | exception Fd.Derive.Unknown_column _ -> go rest)
    in
    go scopes
  in
  let rec go scopes p =
    let rec scalar = function
      | Col a -> Col (resolve scopes a)
      | (Const _ | Host _) as s -> s
      | Agg (fn, Some s) -> Agg (fn, Some (scalar s))
      | Agg (_, None) as s -> s
    in
    match p with
    | Ptrue | Pfalse -> p
    | Cmp (op, a, b) -> Cmp (op, scalar a, scalar b)
    | Between (a, lo, hi) -> Between (scalar a, scalar lo, scalar hi)
    | In_list (a, vs) -> In_list (scalar a, vs)
    | Is_null a -> Is_null (scalar a)
    | Is_not_null a -> Is_not_null (scalar a)
    | And (a, b) -> And (go scopes a, go scopes b)
    | Or (a, b) -> Or (go scopes a, go scopes b)
    | Not a -> Not (go scopes a)
    | Exists sub ->
      Exists { sub with where = go (Fd.Derive.resolver cat sub.from :: scopes) sub.where }
  in
  go scopes0 p

let qualify_scalar cat ~from s =
  let resolve = Fd.Derive.resolver cat from in
  match s with
  | Col a when not (String.equal a.Attr.name "*") -> Col (resolve a)
  | (Col _ | Const _ | Host _ | Agg _) as s -> s

(* Explicit projection of every column of [from], in product-schema order —
   what [SELECT *] denotes before the FROM list changes. *)
let expand_star cat (from : from_item list) =
  List.concat_map
    (fun (f : from_item) ->
      let def = Catalog.find_exn cat f.table in
      let corr = from_name f in
      List.map
        (fun (a : Attr.t) -> Col (Attr.make ~rel:corr ~name:a.Attr.name))
        (Schema.Relschema.attrs def.Catalog.tbl_schema))
    from

let has_aggregate = function
  | Star -> false
  | Cols cs ->
    List.exists (function Agg _ -> true | Col _ | Const _ | Host _ -> false) cs

(* ---- Theorem 2 condition ---- *)

(* Can the block [sub] (already name-qualified) match at most one tuple of
   each of its tables per outer row? Outer columns count as constants. *)
let inner_block_unique cat ~outer_rels (sub : query_spec) =
  let clauses = Logic.Norm.usable_clauses sub.where in
  let eqs =
    List.filter_map
      (function [ lit ] -> Logic.Equalities.of_literal lit | _ -> None)
      clauses
  in
  let is_outer (a : Attr.t) = List.mem a.Attr.rel outer_rels in
  let seed =
    List.fold_left
      (fun acc -> function
        | Logic.Equalities.Type1 (a, _) -> if is_outer a then Attr.Set.add a acc else acc
        | Logic.Equalities.Type2 (a, b) ->
          let acc = if is_outer a then Attr.Set.add a acc else acc in
          if is_outer b then Attr.Set.add b acc else acc)
      Attr.Set.empty eqs
  in
  let v = Logic.Equalities.closure seed eqs in
  List.for_all
    (fun (f : from_item) ->
      let def = Catalog.find_exn cat f.table in
      let corr = from_name f in
      let keys = Catalog.candidate_keys def in
      keys <> []
      && List.exists
           (fun k ->
             List.for_all
               (fun a -> Attr.Set.mem a v)
               (Catalog.key_attrs ~corr k))
           keys)
    sub.from

(* ---- 5.1 unnecessary duplicate elimination ---- *)

let remove_redundant_distinct ?(analyzer = Algorithm1) ?cache ?trace cat query =
  let rule = "distinct-removal (Theorem 1)" in
  let citation = "Theorem 1" in
  let rec go = function
    | Spec q
      when q.distinct = Distinct && spec_is_unique ?cache ?trace analyzer cat q
      ->
      (Spec { q with distinct = All }, true)
    | Spec _ as q -> (q, false)
    | Setop (op, d, a, b) ->
      let a', ca = go a in
      let b', cb = go b in
      (Setop (op, d, a', b'), ca || cb)
  in
  let result, changed = go query in
  if changed then
    applied ~citation rule
      "the projection functionally determines a candidate key of every table"
      result
  else unchanged ~citation rule "uniqueness condition not established" query

(* ---- section 8 extension: unnecessary grouping ---- *)

(* If the grouping columns functionally determine a candidate key of every
   table, every group holds exactly one row: the GROUP BY can be dropped and
   the aggregates collapse (COUNT over a singleton group is 1; SUM / MIN /
   MAX / AVG of a singleton is the operand itself). *)
let remove_redundant_group_by cat query =
  let rule = "group-by removal (section 8 extension)" in
  match query with
  | Spec q when q.group_by <> [] -> begin
    let src = Fd.Derive.of_query_spec cat q in
    let resolve = Fd.Derive.resolver cat q.from in
    let group_attrs =
      List.filter_map
        (function Col a -> Some (resolve a) | Const _ | Host _ | Agg _ -> None)
        q.group_by
    in
    let closure =
      Fd.Fdset.closure src.Fd.Derive.src_fds (Attr.set_of_list group_attrs)
    in
    let singleton_groups =
      List.length group_attrs = List.length q.group_by
      && List.for_all
           (fun (_, keys) ->
             keys <> [] && List.exists (fun k -> Attr.Set.subset k closure) keys)
           src.Fd.Derive.src_keys
    in
    if not singleton_groups then
      unchanged rule "groups may hold several rows (grouping set is not a key)"
        query
    else begin
      let de_aggregate = function
        | Agg (Count, None) -> Some (Const (Sqlval.Value.Int 1))
        | Agg (Count, Some _) ->
          (* would need a NULL test (0 or 1); not expressible as a scalar *)
          None
        | Agg ((Sum | Min | Max | Avg), Some s) -> Some s
        | Agg ((Sum | Min | Max | Avg), None) -> None
        | (Col _ | Const _ | Host _) as s -> Some s
      in
      match q.select with
      | Star -> unchanged rule "SELECT * with GROUP BY is not supported" query
      | Cols cs ->
        let rewritten = List.map de_aggregate cs in
        if List.exists (fun o -> o = None) rewritten then
          unchanged rule
            "COUNT(column) over a singleton group needs a CASE expression"
            query
        else
          applied rule
            "every group holds exactly one row (the grouping columns \
             functionally determine a candidate key of every table)"
            (Spec
               {
                 q with
                 select = Cols (List.filter_map Fun.id rewritten);
                 group_by = [];
               })
    end
  end
  | Spec _ | Setop _ -> unchanged rule "no GROUP BY clause" query

(* ---- 5.2 subquery to join ---- *)

let subquery_to_join ?cache cat (q : query_spec) =
  let rule = "subquery-to-join (Theorem 2 / Corollary 1)" in
  let conjs = conjuncts q.where in
  let rec split acc = function
    | [] -> None
    | Exists sub :: rest -> Some (sub, List.rev_append acc rest)
    | c :: rest -> split (c :: acc) rest
  in
  match split [] conjs with
  | None -> unchanged rule "no positive existential subquery" (Spec q)
  | Some (sub, others) ->
    let outer_rels = List.map from_name q.from in
    (* resolve inner references before merging scopes *)
    let sub =
      { sub with where = qualify_pred cat ~inner:sub.from ~outer:q.from sub.where }
    in
    let sub = freshen_names ~used:outer_rels sub in
    let merged_where = conj (others @ conjuncts sub.where) in
    (* [SELECT *] must keep denoting the original FROM list's columns once
       the subquery's tables join it *)
    let select =
      match q.select with Star -> Cols (expand_star cat q.from) | Cols _ -> q.select
    in
    let merged from distinct =
      Spec { q with select; distinct; from = q.from @ from; where = merged_where }
    in
    (* With GROUP BY or aggregates only the at-most-one-match branch is
       sound: it leaves every group's contents intact, whereas collapsing
       extra matches with DISTINCT happens after aggregation — too late to
       undo the multiplicities the join fed into the aggregates. *)
    let grouped = q.group_by <> [] || has_aggregate q.select in
    if inner_block_unique cat ~outer_rels sub then
      applied rule
        "the subquery block matches at most one tuple per outer row \
         (a candidate key of every inner table is pinned)"
        (merged sub.from q.distinct)
    else if grouped then
      unchanged rule
        "subquery may match several tuples, which would skew the grouped \
         aggregates"
        (Spec q)
    else if q.distinct = Distinct then
      applied rule
        "projection is DISTINCT, so duplicates from extra matches collapse"
        (merged sub.from Distinct)
    else if
      operand_is_duplicate_free ?cache cat { q with where = conj others }
    then
      applied rule
        "outer block is duplicate-free (Corollary 1): join made DISTINCT"
        (merged sub.from Distinct)
    else
      unchanged rule
        "subquery may match several tuples and the outer block is not \
         duplicate-free"
        (Spec q)

(* ---- section 6: join to subquery ---- *)

let join_to_subquery cat (q : query_spec) =
  let rule = "join-to-subquery (section 6)" in
  if List.length q.from < 2 then
    unchanged rule "single-table FROM list" (Spec q)
  else if q.group_by <> [] || has_aggregate q.select then
    (* moving a table into EXISTS changes the multiplicities (and possibly
       the very columns) the grouping and aggregates consume *)
    unchanged rule "GROUP BY / aggregates pin the join's multiplicities" (Spec q)
  else begin
    (* qualify projection and predicate so that table usage is explicit *)
    let select =
      match q.select with
      | Star -> Star
      | Cols cs -> Cols (List.map (qualify_scalar cat ~from:q.from) cs)
    in
    let where = qualify_pred cat ~inner:q.from ~outer:[] q.where in
    match select with
    | Star -> unchanged rule "SELECT * references every table" (Spec q)
    | Cols cs ->
      let proj_rels = List.sort_uniq String.compare (List.concat_map rels_of_scalar cs) in
      let inner_from, outer_from =
        List.partition (fun f -> not (List.mem (from_name f) proj_rels)) q.from
      in
      if inner_from = [] then
        unchanged rule "every table contributes projection columns" (Spec q)
      else if outer_from = [] then
        unchanged rule "no table is referenced by the projection" (Spec q)
      else begin
        let inner_rels = List.map from_name inner_from in
        let inner_conjs, outer_conjs =
          List.partition
            (fun c ->
              List.exists (fun r -> List.mem r inner_rels) (rels_of_pred c))
            (conjuncts where)
        in
        let sub =
          Sql.Ast.plain_spec ~select:Star ~from:inner_from
            ~where:(conj inner_conjs) ()
        in
        (* ORDER BY keys are select items, so they stay in [outer_from] *)
        let order_by = List.map (qualify_scalar cat ~from:q.from) q.order_by in
        let rewritten distinct =
          Spec
            (plain_spec ~distinct ~order_by ~select ~from:outer_from
               ~where:(conj (outer_conjs @ [ Exists sub ]))
               ())
        in
        if q.distinct = Distinct then
          applied rule "DISTINCT projection: equivalence is unconditional"
            (rewritten Distinct)
        else if
          inner_block_unique cat ~outer_rels:(List.map from_name outer_from) sub
        then
          applied rule
            "the moved block matches at most one tuple per outer row \
             (Theorem 2)"
            (rewritten All)
        else
          unchanged rule
            "inner block may match several tuples for an ALL projection"
            (Spec q)
      end
  end

(* ---- section 8 extension: predicates implied by table constraints ---- *)

(* Paper section 2.1: any table constraint can be conjoined to a query
   without changing its result; the profitable converse deletes WHERE
   conjuncts the constraints already guarantee. 3VL safety: a CHECK passes
   when not-false, so on a NULLable column it can hold where the WHERE
   conjunct is unknown — the rewrite therefore requires the column to be
   NOT NULL. *)
let remove_implied_predicates cat (q : query_spec) =
  let rule = "predicate pruning (table constraints)" in
  let resolve = Fd.Derive.resolver cat q.from in
  let single_column c =
    if contains_exists c then None
    else
      match
        List.sort_uniq Attr.compare
          (List.filter_map
             (fun a -> try Some (resolve a) with Fd.Derive.Unknown_column _ -> None)
             (cols_of_pred c))
      with
      | [ a ] -> Some a
      | _ -> None
  in
  let implied_conjunct c =
    match single_column c with
    | None -> false
    | Some a -> begin
      match
        List.find_opt (fun f -> String.equal (from_name f) a.Attr.rel) q.from
      with
      | None -> false
      | Some f ->
        let def = Catalog.find_exn cat f.table in
        let not_null =
          match
            Schema.Relschema.find_index def.Catalog.tbl_schema
              (Attr.make ~rel:def.Catalog.tbl_name ~name:a.Attr.name)
          with
          | Some i ->
            not
              (Schema.Relschema.column_at def.Catalog.tbl_schema i)
                .Schema.Relschema.nullable
          | None | (exception Failure _) -> false
        in
        not_null
        &&
        let cstr =
          Logic.Implies.constraint_for ~col:a.Attr.name def.Catalog.tbl_checks
        in
        cstr <> Logic.Implies.unconstrained
        && Logic.Implies.implied cstr ~col:a.Attr.name c
    end
  in
  let kept, dropped =
    List.partition (fun c -> not (implied_conjunct c)) (conjuncts q.where)
  in
  if dropped = [] then
    unchanged rule "no conjunct is implied by the table constraints" (Spec q)
  else
    applied rule
      (Printf.sprintf "implied conjunct(s) removed: %s"
         (String.concat "; " (List.map Sql.Pretty.pred dropped)))
      (Spec { q with where = conj kept })

(* ---- section 8 extension: join elimination via inclusion dependencies ---- *)

(* King's join elimination, the paper's future-work item 2: a table joined
   only to supply existence can be dropped when a referential constraint
   guarantees exactly one match. Occurrence T is removable when:
   - no projection, grouping, or non-join condition references T;
   - the conditions on T are exactly equi-join conjuncts pairing some other
     occurrence F's columns with T's columns;
   - F's table declares a FOREIGN KEY on those columns referencing T's
     (the paired T-columns must be the referenced candidate key), and the
     FK columns are NOT NULL in F (otherwise the join would drop F rows
     with NULL references and elimination would keep them). *)
let eliminate_joins cat (q : query_spec) =
  let rule = "join-elimination (inclusion dependencies)" in
  let removable (spec : query_spec) (t_item : from_item) =
    let t = from_name t_item in
    let t_def = Catalog.find_exn cat t_item.table in
    let refs_t p = List.mem t (rels_of_pred p) in
    let scalar_refs_t s = List.mem t (rels_of_scalar s) in
    let select_refs =
      match spec.select with
      | Star -> true
      | Cols cs ->
        List.exists scalar_refs_t cs
        (* an unqualified or starred reference may cover T *)
        || List.exists
             (function
               | Col a -> String.equal a.Attr.name "*" && a.Attr.rel = ""
               | _ -> false)
             cs
    in
    if select_refs || List.exists scalar_refs_t spec.group_by then None
    else begin
      let conjs = conjuncts spec.where in
      let join_pair c =
        match Logic.Equalities.of_literal c with
        | Some (Logic.Equalities.Type2 (a, b)) ->
          if String.equal a.Attr.rel t && not (String.equal b.Attr.rel t) then
            Some (b, a.Attr.name)
          else if String.equal b.Attr.rel t && not (String.equal a.Attr.rel t)
          then Some (a, b.Attr.name)
          else None
        | _ -> None
      in
      let join_conjs, others = List.partition (fun c -> join_pair c <> None) conjs in
      if List.exists refs_t others then None
      else begin
        let pairs = List.filter_map join_pair join_conjs in
        match pairs with
        | [] -> None
        | (first, _) :: _ ->
          let f_rel = first.Attr.rel in
          if not (List.for_all (fun (fa, _) -> String.equal fa.Attr.rel f_rel) pairs)
          then None
          else begin
            match
              List.find_opt (fun fi -> String.equal (from_name fi) f_rel) spec.from
            with
            | None -> None
            | Some f_item ->
              let f_def = Catalog.find_exn cat f_item.table in
              let fk_matches (fk : Catalog.foreign_key) =
                String.equal fk.Catalog.fk_table t_def.Catalog.tbl_name
                &&
                match Catalog.resolve_fk cat fk with
                | exception Failure _ -> false
                | ref_cols ->
                  List.length pairs = List.length fk.Catalog.fk_cols
                  && List.for_all2
                       (fun fk_col ref_col ->
                         List.exists
                           (fun ((fa : Attr.t), t_name) ->
                             String.equal fa.Attr.name fk_col
                             && String.equal t_name ref_col)
                           pairs)
                       fk.Catalog.fk_cols ref_cols
                  (* the referenced columns must be a candidate key of T *)
                  && List.exists
                       (fun (k : Catalog.key) ->
                         List.sort String.compare k.Catalog.key_cols
                         = List.sort String.compare ref_cols)
                       t_def.Catalog.tbl_keys
                  (* FK columns NOT NULL in F *)
                  && List.for_all
                       (fun c ->
                         match
                           Schema.Relschema.find_index f_def.Catalog.tbl_schema
                             (Attr.make ~rel:f_def.Catalog.tbl_name ~name:c)
                         with
                         | Some i ->
                           not
                             (Schema.Relschema.column_at f_def.Catalog.tbl_schema i)
                               .Schema.Relschema.nullable
                         | None | (exception Failure _) -> false)
                       fk.Catalog.fk_cols
              in
              if List.exists fk_matches f_def.Catalog.tbl_foreign_keys then
                Some
                  {
                    spec with
                    from = List.filter (fun fi -> fi != t_item) spec.from;
                    where = conj others;
                  }
              else None
          end
      end
    end
  in
  let qualify spec =
    {
      spec with
      select =
        (match spec.select with
         | Star -> Star
         | Cols cs -> Cols (List.map (qualify_scalar cat ~from:spec.from) cs));
      where = qualify_pred cat ~inner:spec.from ~outer:[] spec.where;
      group_by = List.map (qualify_scalar cat ~from:spec.from) spec.group_by;
    }
  in
  let rec fixpoint spec eliminated =
    if List.length spec.from < 2 then (spec, eliminated)
    else
      match List.find_map (removable spec) spec.from with
      | Some spec' -> fixpoint spec' (eliminated + 1)
      | None -> (spec, eliminated)
  in
  if List.length q.from < 2 then
    unchanged rule "single-table FROM list" (Spec q)
  else begin
    let spec, eliminated = fixpoint (qualify q) 0 in
    if eliminated = 0 then
      unchanged rule "no table is joined purely through a referential key"
        (Spec q)
    else
      applied rule
        (Printf.sprintf
           "%d table(s) eliminated: the foreign key guarantees exactly one \
            match per row"
           eliminated)
        (Spec spec)
  end

(* ---- 5.3 intersection (and EXCEPT) to subquery ---- *)

(* Null-safe correlation predicate between the two operands' projection
   columns; plain equality when both sides are non-nullable (footnote 1). *)
let correlation_pred cat ~left ~right =
  let nullable_of from s =
    match s with
    | Col a ->
      let resolve = Fd.Derive.resolver cat from in
      let a = resolve a in
      let found = ref true in
      let nullable = ref true in
      (try
         let def = Catalog.find_exn cat
             (let f =
                List.find
                  (fun f -> String.equal (from_name f) a.Attr.rel)
                  from
              in
              f.table)
         in
         let i =
           Schema.Relschema.index_of def.Catalog.tbl_schema
             (Attr.make ~rel:def.Catalog.tbl_name ~name:a.Attr.name)
         in
         nullable := (Schema.Relschema.column_at def.Catalog.tbl_schema i).Schema.Relschema.nullable
       with Not_found | Failure _ -> found := false);
      if !found then !nullable else true
    | Const v -> Sqlval.Value.is_null v
    | Host _ | Agg _ -> true
  in
  let (lf, ls) = left and (rf, rs) = right in
  List.map2
    (fun x y ->
      if (not (nullable_of lf x)) && not (nullable_of rf y) then Cmp (Eq, x, y)
      else Or (And (Is_null x, Is_null y), Cmp (Eq, x, y)))
    ls rs

let setop_to_exists ?cache ~negate cat query =
  let rule =
    if negate then "except-to-not-exists (section 5.3 extension)"
    else "intersect-to-exists (Theorem 3 / Corollary 2)"
  in
  let build (l : query_spec) (r : query_spec) =
    match l.select, r.select with
    | Cols ls, Cols rs when List.length ls = List.length rs ->
      let ls = List.map (qualify_scalar cat ~from:l.from) ls in
      let l = { l with select = Cols ls } in
      let r = freshen_names ~used:(List.map from_name l.from) r in
      let rs' =
        match r.select with
        | Cols rs -> List.map (qualify_scalar cat ~from:r.from) rs
        | Star -> assert false
      in
      let corr =
        correlation_pred cat ~left:(l.from, ls) ~right:(r.from, rs')
      in
      let sub =
        plain_spec ~select:Star ~from:r.from
          ~where:(conj (conjuncts r.where @ corr))
          ()
      in
      let ex = if negate then Not (Exists sub) else Exists sub in
      Some (Spec { l with where = conj (conjuncts l.where @ [ ex ]) })
    | _ -> None
  in
  match query with
  | Setop (op, _, Spec l, Spec r)
    when (op = Intersect && not negate) || (op = Except && negate) ->
    if operand_is_duplicate_free ?cache cat l then begin
      match build l r with
      | Some result ->
        applied rule "left operand is duplicate-free (Theorem 3)" result
      | None ->
        unchanged rule "projection lists are not plain compatible columns" query
    end
    else if (not negate) && operand_is_duplicate_free ?cache cat r then begin
      (* INTERSECT commutes, so the unique operand can drive the probe *)
      match build r l with
      | Some result ->
        applied rule
          "right operand is duplicate-free (Corollary 2, operands swapped)"
          result
      | None ->
        unchanged rule "projection lists are not plain compatible columns" query
    end
    else unchanged rule "neither operand is provably duplicate-free" query
  | Setop _ | Spec _ ->
    unchanged rule "not a matching set operation on query specifications" query

let intersect_to_exists ?cache cat query = setop_to_exists ?cache ~negate:false cat query
let except_to_not_exists ?cache cat query = setop_to_exists ?cache ~negate:true cat query

(* ---- driver ---- *)

let apply_all ?(analyzer = Algorithm1) ?cache ?(trace = Trace.disabled) cat query =
  let outcomes = ref [] in
  let note ?children o =
    Trace.emitf trace (fun () -> node_of_outcome ?children o);
    if o.applied then outcomes := o :: !outcomes
  in
  let try_rewrite f q =
    let o = f q in
    note o;
    o.result
  in
  let q = try_rewrite (setop_to_exists ?cache ~negate:false cat) query in
  let q = try_rewrite (setop_to_exists ?cache ~negate:true cat) q in
  let q = try_rewrite (remove_redundant_group_by cat) q in
  let q =
    match q with
    | Spec spec -> try_rewrite (fun _ -> eliminate_joins cat spec) q
    | Setop _ -> q
  in
  let q =
    match q with
    | Spec spec -> try_rewrite (fun _ -> remove_implied_predicates cat spec) q
    | Setop _ -> q
  in
  (* unnest repeatedly: each application removes one EXISTS *)
  let rec unnest fuel q =
    if fuel = 0 then q
    else
      match q with
      | Spec spec ->
        let o = subquery_to_join ?cache cat spec in
        note o;
        if o.applied then unnest (fuel - 1) o.result else q
      | Setop _ -> q
  in
  let q = unnest 5 q in
  let q =
    (* carry the analyzer's own decision trace as children of the
       distinct-removal node: the rewrite's provenance is the analysis *)
    let analysis = Trace.child trace in
    let o = remove_redundant_distinct ~analyzer ?cache ~trace:analysis cat q in
    note ~children:(Trace.nodes analysis) o;
    o.result
  in
  (q, List.rev !outcomes)

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%s: %s@,%s@,=> %s@]" o.rule
    (if o.applied then "APPLIED" else "not applied")
    o.justification
    (Sql.Pretty.query o.result)
