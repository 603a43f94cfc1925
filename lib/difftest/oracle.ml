module A = Sql.Ast
module U = Uniqueness

type verdict =
  | Pass
  | Skip of string
  | Fail of string

type finding = {
  oracle : string;
  verdict : verdict;
}

let guard f =
  try f () with
  | e -> Fail ("exception: " ^ Printexc.to_string e)

(* run [check] on every instance; the first offending one decides *)
let on_instances (c : Case.t) check =
  let rec go i = function
    | [] -> Pass
    | inst :: rest ->
      let db = Case.database ~index:i c inst in
      (match check db inst.Case.hosts i with
       | None -> go (i + 1) rest
       | Some msg -> Fail msg)
  in
  go 0 c.Case.instances

(* ---- uniqueness ---- *)

let analyzers ?cache cat =
  [ ("alg1", fun q -> U.Algorithm1.distinct_is_redundant ?cache cat q);
    ("fd", fun q -> U.Fd_analysis.distinct_is_redundant ?cache cat q) ]

let uniqueness ?cache (c : Case.t) =
  match c.Case.query with
  | A.Setop _ ->
    [ { oracle = "uniqueness/alg1"; verdict = Skip "set operation" };
      { oracle = "uniqueness/fd"; verdict = Skip "set operation" } ]
  | A.Spec q when q.A.group_by <> [] ->
    [ { oracle = "uniqueness/alg1"; verdict = Skip "GROUP BY" };
      { oracle = "uniqueness/fd"; verdict = Skip "GROUP BY" } ]
  | A.Spec q ->
    let cat = Case.catalog c in
    List.map
      (fun (name, claims) ->
        let verdict =
          guard (fun () ->
              if not (claims q) then Skip "analyzer does not claim uniqueness"
              else
                on_instances c (fun db hosts i ->
                    let all_rows =
                      Engine.Exec.run_query db ~hosts
                        (A.Spec { q with A.distinct = A.All })
                    in
                    let distinct_rows =
                      Engine.Exec.run_query db ~hosts
                        (A.Spec { q with A.distinct = A.Distinct })
                    in
                    if Engine.Relation.equal_bags all_rows distinct_rows then
                      None
                    else
                      Some
                        (Printf.sprintf
                           "instance %d: ALL has %d rows, DISTINCT %d" i
                           (Engine.Relation.cardinality all_rows)
                           (Engine.Relation.cardinality distinct_rows))))
        in
        { oracle = "uniqueness/" ^ name; verdict })
      (analyzers ?cache cat)

(* ---- rewrite ---- *)

let check_outcome c (outcome : U.Rewrite.outcome) =
  if not outcome.U.Rewrite.applied then Skip "rule does not apply"
  else
    on_instances c (fun db hosts i ->
        let before = Engine.Exec.run_query db ~hosts c.Case.query in
        let after = Engine.Exec.run_query db ~hosts outcome.U.Rewrite.result in
        if Engine.Relation.equal_bags before after then None
        else
          Some
            (Printf.sprintf "instance %d: %d rows before, %d after (%s)" i
               (Engine.Relation.cardinality before)
               (Engine.Relation.cardinality after)
               (Sql.Pretty.query outcome.U.Rewrite.result)))

let rewrite ?cache (c : Case.t) =
  let cat = Case.catalog c in
  let q = c.Case.query in
  let whole_query =
    [ ("remove_distinct_alg1",
       fun () ->
         U.Rewrite.remove_redundant_distinct ~analyzer:U.Rewrite.Algorithm1
           ?cache cat q);
      ("remove_distinct_fd",
       fun () ->
         U.Rewrite.remove_redundant_distinct ~analyzer:U.Rewrite.Fd_closure
           ?cache cat q);
      ("remove_group_by", fun () -> U.Rewrite.remove_redundant_group_by cat q);
      ("intersect_to_exists", fun () -> U.Rewrite.intersect_to_exists ?cache cat q);
      ("except_to_not_exists", fun () -> U.Rewrite.except_to_not_exists ?cache cat q) ]
  in
  let spec_rules =
    match q with
    | A.Spec s ->
      [ ("subquery_to_join", fun () -> U.Rewrite.subquery_to_join ?cache cat s);
        ("join_to_subquery", fun () -> U.Rewrite.join_to_subquery cat s);
        ("remove_implied", fun () -> U.Rewrite.remove_implied_predicates cat s);
        ("eliminate_joins", fun () -> U.Rewrite.eliminate_joins cat s) ]
    | A.Setop _ -> []
  in
  let rule_findings =
    List.map
      (fun (name, apply) ->
        { oracle = "rewrite/" ^ name;
          verdict = guard (fun () -> check_outcome c (apply ())) })
      (whole_query @ spec_rules)
  in
  (* the composed pipeline, end to end *)
  let composed =
    { oracle = "rewrite/apply_all";
      verdict =
        guard (fun () ->
            let final, outcomes = U.Rewrite.apply_all ?cache cat q in
            if outcomes = [] then Skip "no rewrite applies"
            else
              check_outcome c
                { U.Rewrite.applied = true;
                  rule = "apply_all";
                  citation = None;
                  justification = "";
                  result = final }) }
  in
  rule_findings @ [ composed ]

(* ---- agreement ---- *)

(* When the exact checker cannot decide a claimed case (unsupported shape
   or oversized search space), the symbolic oracle gets a chance: a
   symbolic proof confirms the analyzer ([Pass]), an engine-verified
   refutation convicts it ([Fail]); only a double give-up skips. *)
let symbolic_fallback cat q skip_reason =
  match Symbolic.Equiv.distinct_redundant cat q with
  | Symbolic.Equiv.Proved -> Pass
  | Symbolic.Equiv.Refuted _ ->
    Fail
      "analyzer claims uniqueness, symbolic oracle refutes it with a \
       verified instance"
  | Symbolic.Equiv.Unknown r -> Skip (skip_reason ^ "; symbolic: " ^ r)

let agreement ?(max_cells = 100_000) ?cache (c : Case.t) =
  match c.Case.query with
  | A.Setop _ ->
    [ { oracle = "agreement/alg1"; verdict = Skip "set operation" };
      { oracle = "agreement/fd"; verdict = Skip "set operation" } ]
  | A.Spec q ->
    let cat = Case.catalog c in
    List.map
      (fun (name, claims) ->
        let verdict =
          guard (fun () ->
              if q.A.group_by <> [] then Skip "GROUP BY"
              else if not (claims q) then
                Skip "analyzer does not claim uniqueness"
              else
                (* tight pair bound: an oversized pair space is a Skip
                   here, never a minutes-long enumeration *)
                match
                  U.Exact.check ~max_cells ~max_pairs:(10 * max_cells) cat q
                with
                | U.Exact.Unique -> Pass
                | U.Exact.Unsupported reason ->
                  symbolic_fallback cat q ("exact checker: " ^ reason)
                | U.Exact.Duplicable cex ->
                  Fail
                    (Printf.sprintf
                       "analyzer claims uniqueness, exact checker found \
                        duplicates (projected row (%s) twice)"
                       (String.concat ", "
                          (List.map Sqlval.Value.to_string
                             (Array.to_list cex.U.Exact.row1))))
                | exception U.Exact.Too_large n ->
                  symbolic_fallback cat q
                    (Printf.sprintf "search space too large (%d)" n))
        in
        { oracle = "agreement/" ^ name; verdict })
      (analyzers ?cache cat)

(* ---- symbolic ---- *)

(* The symbolic oracle's own contract, checked both ways on every case:
   a [Proved] must agree with the engine on every generated instance, a
   [Refuted] must reproduce on its own hinted instance (and no analyzer
   may simultaneously claim uniqueness), and whenever the exact checker
   also decides, the two verdicts must coincide. *)
let symbolic ?(max_cells = 100_000) ?cache (c : Case.t) =
  match c.Case.query with
  | A.Setop _ ->
    [ { oracle = "symbolic/unique"; verdict = Skip "set operation" };
      { oracle = "symbolic/vs-exact"; verdict = Skip "set operation" } ]
  | A.Spec q when q.A.group_by <> [] ->
    [ { oracle = "symbolic/unique"; verdict = Skip "GROUP BY" };
      { oracle = "symbolic/vs-exact"; verdict = Skip "GROUP BY" } ]
  | A.Spec q ->
    let cat = Case.catalog c in
    let sym =
      match Symbolic.Equiv.distinct_redundant cat q with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e)
    in
    let unique_finding =
      { oracle = "symbolic/unique";
        verdict =
          (match sym with
           | Error e -> Fail ("exception: " ^ e)
           | Ok (Symbolic.Equiv.Unknown r) -> Skip r
           | Ok Symbolic.Equiv.Proved ->
             on_instances c (fun db hosts i ->
                 let all_rows =
                   Engine.Exec.run_query db ~hosts
                     (A.Spec { q with A.distinct = A.All })
                 in
                 let distinct_rows =
                   Engine.Exec.run_query db ~hosts
                     (A.Spec { q with A.distinct = A.Distinct })
                 in
                 if Engine.Relation.equal_bags all_rows distinct_rows then
                   None
                 else
                   Some
                     (Printf.sprintf
                        "symbolic Proved but instance %d has duplicates \
                         (ALL %d rows, DISTINCT %d)"
                        i
                        (Engine.Relation.cardinality all_rows)
                        (Engine.Relation.cardinality distinct_rows)))
           | Ok (Symbolic.Equiv.Refuted hint) ->
             guard (fun () ->
                 match
                   List.find_opt (fun (_, claims) -> claims q)
                     (analyzers ?cache cat)
                 with
                 | Some (name, _) ->
                   Fail
                     (Printf.sprintf
                        "%s claims uniqueness but the symbolic oracle \
                         refuted it"
                        name)
                 | None ->
                   let db = Engine.Database.create cat in
                   List.iter
                     (fun (t, rows) -> Engine.Database.load db t rows)
                     hint.Symbolic.Equiv.instance;
                   if Engine.Database.validate db <> [] then
                     Fail "symbolic refutation instance violates constraints"
                   else
                     let run distinct =
                       Engine.Exec.run_query db
                         ~hosts:hint.Symbolic.Equiv.hosts
                         (A.Spec { q with A.distinct })
                     in
                     if
                       Engine.Relation.equal_bags (run A.All)
                         (run A.Distinct)
                     then
                       Fail
                         "symbolic refutation does not reproduce on its \
                          own instance"
                     else Pass)) }
    in
    let vs_exact =
      { oracle = "symbolic/vs-exact";
        verdict =
          (match sym with
           | Error e -> Fail ("exception: " ^ e)
           | Ok sym ->
             guard (fun () ->
                 match
                   U.Exact.check ~max_cells ~max_pairs:(10 * max_cells) cat q
                 with
                 | exception U.Exact.Too_large n ->
                   Skip (Printf.sprintf "search space too large (%d)" n)
                 | U.Exact.Unsupported reason ->
                   Skip ("exact checker: " ^ reason)
                 | U.Exact.Unique ->
                   (match sym with
                    | Symbolic.Equiv.Refuted _ ->
                      Fail "exact says Unique, symbolic refuted"
                    | Symbolic.Equiv.Proved -> Pass
                    | Symbolic.Equiv.Unknown r -> Skip ("symbolic: " ^ r))
                 | U.Exact.Duplicable _ ->
                   (match sym with
                    | Symbolic.Equiv.Proved ->
                      Fail "exact found duplicates, symbolic proved unique"
                    | Symbolic.Equiv.Refuted _ -> Pass
                    | Symbolic.Equiv.Unknown r -> Skip ("symbolic: " ^ r)))) }
    in
    [ unique_finding; vs_exact ]

(* ---- 3VL / 2VL logic agreement ---- *)

(* Libkin: two-valued logic (atoms over NULL are plain false) agrees with
   SQL's three-valued logic on null-free data; on nullable instances the
   divergences are real and catalogued as skips, never failures. *)
let logic_agreement (c : Case.t) =
  let q = c.Case.query in
  [ { oracle = "logic/2vl";
      verdict =
        guard (fun () ->
            let divergent = ref 0 in
            let nullable = ref 0 in
            let bad = ref None in
            List.iteri
              (fun i inst ->
                let db = Case.database ~index:i c inst in
                let run logic =
                  let config =
                    { (Engine.Exec.default_config ()) with
                      Engine.Exec.logic }
                  in
                  Engine.Exec.run_query ~config db ~hosts:inst.Case.hosts q
                in
                let r3 = run Sqlval.Logic_mode.L3 in
                let r2 = run Sqlval.Logic_mode.L2 in
                let agree = Engine.Relation.equal_bags r3 r2 in
                let has_null =
                  List.exists
                    (fun (_, rows) ->
                      List.exists
                        (fun row -> Array.exists Sqlval.Value.is_null row)
                        rows)
                    inst.Case.rows
                  || List.exists
                       (fun (_, v) -> Sqlval.Value.is_null v)
                       inst.Case.hosts
                in
                if has_null then begin
                  incr nullable;
                  if not agree then incr divergent
                end
                else if (not agree) && !bad = None then
                  bad :=
                    Some
                      (Printf.sprintf
                         "instance %d: 3VL and 2VL disagree on a null-free \
                          instance (%d vs %d rows)"
                         i
                         (Engine.Relation.cardinality r3)
                         (Engine.Relation.cardinality r2)))
              c.Case.instances;
            match !bad with
            | Some msg -> Fail msg
            | None ->
              if !divergent > 0 then
                Skip
                  (Printf.sprintf "2VL diverges on %d/%d nullable \
                                   instance(s)"
                     !divergent !nullable)
              else Pass) } ]

(* ---- cache consistency ---- *)

(* Drop [cache.hit] marker nodes (at any depth): the only trace difference
   caching is allowed to introduce. *)
let rec strip_cache_hits nodes =
  List.filter_map
    (fun (n : Trace.node) ->
      if n.Trace.rule = "cache.hit" then None
      else Some { n with Trace.children = strip_cache_hits n.Trace.children })
    nodes

(* Caching must be semantically invisible: for every analyzer, the direct
   verdict, the cache-miss verdict, and the cache-hit verdict must agree
   (closure memo forced on for the cached runs); and [apply_all] must
   produce the same final query, the same outcome list, and the same trace
   (modulo [cache.hit] nodes) with and without a cache. *)
let cache_consistency (c : Case.t) =
  let cat = Case.catalog c in
  let safe f =
    match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  let verdicts =
    match c.Case.query with
    | A.Setop _ -> { oracle = "cache/verdicts"; verdict = Skip "set operation" }
    | A.Spec q ->
      { oracle = "cache/verdicts";
        verdict =
          guard (fun () ->
              let cache = Analysis_cache.create () in
              let mismatches =
                List.map2
                  (fun (name, direct) (_, cached) ->
                    let d =
                      Cache.Runtime.with_enabled false (fun () -> safe (fun () -> direct q))
                    in
                    let miss =
                      Cache.Runtime.with_enabled true (fun () -> safe (fun () -> cached q))
                    in
                    let hit =
                      Cache.Runtime.with_enabled true (fun () -> safe (fun () -> cached q))
                    in
                    if d = miss && miss = hit then None
                    else
                      let show = function
                        | Ok b -> string_of_bool b
                        | Error e -> "exception " ^ e
                      in
                      Some
                        (Printf.sprintf "%s: direct=%s miss=%s hit=%s" name
                           (show d) (show miss) (show hit)))
                  (analyzers cat) (analyzers ~cache cat)
                |> List.filter_map Fun.id
              in
              match mismatches with
              | [] -> Pass
              | ms -> Fail (String.concat "; " ms)) }
  in
  let apply_all_consistent =
    { oracle = "cache/apply_all";
      verdict =
        guard (fun () ->
            let q = c.Case.query in
            let base_trace = Trace.make () in
            match
              Cache.Runtime.with_enabled false (fun () ->
                  U.Rewrite.apply_all ~trace:base_trace cat q)
            with
            | exception _ -> Skip "rewrite pipeline raises without a cache"
            | base_final, base_outcomes ->
              let cache = Analysis_cache.create () in
              (* first pass fills the cache, second exercises the hit path *)
              let _warm =
                Cache.Runtime.with_enabled true (fun () ->
                    U.Rewrite.apply_all ~cache cat q)
              in
              let cached_trace = Trace.make () in
              let cached_final, cached_outcomes =
                Cache.Runtime.with_enabled true (fun () ->
                    U.Rewrite.apply_all ~cache ~trace:cached_trace cat q)
              in
              let outcome_key (o : U.Rewrite.outcome) =
                (o.U.Rewrite.rule, o.U.Rewrite.applied,
                 Sql.Pretty.query o.U.Rewrite.result)
              in
              if cached_final <> base_final then
                Fail
                  (Printf.sprintf "final query differs: %s vs %s (cached)"
                     (Sql.Pretty.query base_final)
                     (Sql.Pretty.query cached_final))
              else if
                List.map outcome_key cached_outcomes
                <> List.map outcome_key base_outcomes
              then Fail "applied-outcome list differs under caching"
              else if
                strip_cache_hits (Trace.nodes cached_trace)
                <> Trace.nodes base_trace
              then Fail "traces differ beyond cache.hit nodes"
              else Pass) }
  in
  [ verdicts; apply_all_consistent ]

(* ---- distinct strategies ---- *)

(* Operator-agreement oracle: every duplicate-elimination strategy is one
   implementation of the same bag function, so on DISTINCT-forced runs the
   materializing baseline (sort) and the streaming [Operator.unique] —
   whichever path the instance's verified order selects — must return
   bag-equal results on every instance. The planner half additionally
   pins the elision certificate: Distinct_plan may pick the pass-through
   only when Algorithm 1 independently answers YES, and whatever it picks
   must match the baseline. *)
let distinct_strategies ?cache (c : Case.t) =
  match c.Case.query with
  | A.Setop _ ->
    [ { oracle = "distinct/strategies"; verdict = Skip "set operation" };
      { oracle = "distinct/planner"; verdict = Skip "set operation" } ]
  | A.Spec q ->
    let cat = Case.catalog c in
    let dq = A.Spec { q with A.distinct = A.Distinct } in
    let run impl db hosts =
      let config =
        { (Engine.Exec.default_config ()) with Engine.Exec.distinct_impl = impl }
      in
      Engine.Exec.run_query ~config db ~hosts dq
    in
    let strategies =
      guard (fun () ->
          on_instances c (fun db hosts i ->
              let baseline = run Engine.Exec.Sort_distinct db hosts in
              let r = run Engine.Exec.Stream_hash db hosts in
              if Engine.Relation.equal_bags baseline r then None
              else
                Some
                  (Printf.sprintf
                     "instance %d: stream-hash disagrees with sort-distinct \
                      (%d vs %d rows)"
                     i
                     (Engine.Relation.cardinality r)
                     (Engine.Relation.cardinality baseline))))
    in
    let planner =
      guard (fun () ->
          on_instances c (fun db hosts i ->
              let choice =
                Optimizer.Distinct_plan.choose ?cache ~database:db cat dq
              in
              let alg1_says_yes =
                try U.Algorithm1.distinct_is_redundant ?cache cat
                      { q with A.distinct = A.Distinct }
                with _ -> false
              in
              if
                choice.Optimizer.Distinct_plan.impl = Engine.Exec.Stream_elided
                && not alg1_says_yes
              then
                Some
                  (Printf.sprintf
                     "instance %d: planner elided DISTINCT without an \
                      Algorithm 1 YES certificate"
                     i)
              else begin
                let baseline = run Engine.Exec.Sort_distinct db hosts in
                let chosen = run choice.Optimizer.Distinct_plan.impl db hosts in
                if Engine.Relation.equal_bags baseline chosen then None
                else
                  Some
                    (Printf.sprintf
                       "instance %d: planned strategy %s disagrees with \
                        sort-distinct (%d vs %d rows)"
                       i choice.Optimizer.Distinct_plan.name
                       (Engine.Relation.cardinality chosen)
                       (Engine.Relation.cardinality baseline))
              end))
    in
    [ { oracle = "distinct/strategies"; verdict = strategies };
      { oracle = "distinct/planner"; verdict = planner } ]

(* ---- join strategies ---- *)

(* Operator-agreement oracle for joins: every join implementation is one
   bag function, so the streaming hash join (FROM order) and the planned
   cost-ordered join must bag-equal the nested product-and-filter
   baseline on every instance. The planner half pins the unique-build
   certificate: each [Planned_join] step may set [js_unique_build] only
   when the synthetic DISTINCT spec it carries ([cert_spec]) gets an
   independent Algorithm 1 YES — the mirror of the distinct oracle's
   elision rule. *)
let join_strategies ?cache (c : Case.t) =
  let skip why =
    [ { oracle = "join/strategies"; verdict = Skip why };
      { oracle = "join/planner"; verdict = Skip why } ]
  in
  match c.Case.query with
  | A.Setop _ -> skip "set operation"
  | A.Spec q when List.length q.A.from < 2 -> skip "single-table query"
  | A.Spec _ ->
    let cat = Case.catalog c in
    let query = c.Case.query in
    let run impl db hosts =
      let config =
        { (Engine.Exec.default_config ()) with Engine.Exec.join_impl = impl }
      in
      Engine.Exec.run_query ~config db ~hosts query
    in
    let strategies =
      guard (fun () ->
          on_instances c (fun db hosts i ->
              let baseline = run Engine.Exec.Nested_join db hosts in
              let choice =
                Optimizer.Join_plan.choose ?cache ~database:db cat query
              in
              let check name impl =
                let r = run impl db hosts in
                if Engine.Relation.equal_bags baseline r then None
                else
                  Some
                    (Printf.sprintf
                       "instance %d: %s disagrees with nested-join (%d vs %d \
                        rows)"
                       i name
                       (Engine.Relation.cardinality r)
                       (Engine.Relation.cardinality baseline))
              in
              List.fold_left
                (fun acc (name, impl) ->
                  match acc with Some _ -> acc | None -> check name impl)
                None
                [ ("hash-join", Engine.Exec.Hash_join);
                  ( "planned:" ^ choice.Optimizer.Join_plan.name,
                    choice.Optimizer.Join_plan.impl ) ]))
    in
    let planner =
      guard (fun () ->
          on_instances c (fun db _hosts i ->
              let choice =
                Optimizer.Join_plan.choose ?cache ~database:db cat query
              in
              let bad_step st =
                if not st.Optimizer.Join_plan.unique_build then None
                else
                  match st.Optimizer.Join_plan.cert_spec with
                  | None ->
                    Some
                      (Printf.sprintf
                         "instance %d: unique build on %s carries no \
                          certificate spec"
                         i st.Optimizer.Join_plan.leaf_name)
                  | Some spec ->
                    let certified =
                      try U.Algorithm1.distinct_is_redundant ?cache cat spec
                      with _ -> false
                    in
                    if certified then None
                    else
                      Some
                        (Printf.sprintf
                           "instance %d: unique build on %s without an \
                            Algorithm 1 YES certificate"
                           i st.Optimizer.Join_plan.leaf_name)
              in
              List.fold_left
                (fun acc st ->
                  match acc with Some _ -> acc | None -> bad_step st)
                None choice.Optimizer.Join_plan.steps))
    in
    [ { oracle = "join/strategies"; verdict = strategies };
      { oracle = "join/planner"; verdict = planner } ]

(* ---- order strategies ---- *)

(* ORDER BY variants of a spec over its own select columns — the first
   column, then the full list — which keeps the keys inside the select
   list as the grammar requires; none under a star or without a plain
   column. *)
let order_variants (q : A.query_spec) =
  let items = match q.A.select with A.Cols items -> items | A.Star -> [] in
  let has_star =
    List.exists
      (function
        | A.Col a -> String.equal a.Schema.Attr.name "*"
        | _ -> false)
      items
  in
  let keyable =
    if has_star then []
    else
      List.filter
        (function
          | A.Col _ -> true
          | A.Const _ | A.Host _ | A.Agg _ -> false)
        items
  in
  match keyable with
  | [] -> []
  | [ first ] -> [ [ first ] ]
  | first :: _ -> [ [ first ]; keyable ]

(* Do [rows] of [q]'s result arrive sorted on [q]'s ORDER BY keys under
   [Value.compare_total]? Each non-star select item is one output column,
   which locates the keys. *)
let sorted_on_keys (q : A.query_spec) rows =
  let items = match q.A.select with A.Cols items -> items | A.Star -> [] in
  let key_idxs =
    List.map
      (fun k ->
        let rec find j = function
          | [] -> raise Not_found
          | it :: rest -> if it = k then j else find (j + 1) rest
        in
        find 0 items)
      q.A.order_by
  in
  let cmp a b =
    List.fold_left
      (fun acc j ->
        if acc <> 0 then acc else Sqlval.Value.compare_total a.(j) b.(j))
      0 key_idxs
  in
  let rec sorted = function
    | x :: (y :: _ as rest) -> cmp x y <= 0 && sorted rest
    | _ -> true
  in
  sorted rows

(* Operator-agreement oracle for ORDER BY and merge joins, stricter than
   the bag oracles above: ordering is a claim about the row LIST, so
   every strategy must be list-equal — same rows, same positions — to
   the materializing stable-sort baseline, on every [order_variants]
   form of the case. The strategies half runs the planner's choice
   (composed as [Optimizer.Physical.plan] composes it: [Join_plan]'s join
   plan with its merge joins, then [Order_plan]) against the same join
   order with every certificate withdrawn, and a deliberately blind
   all-merge join plan (the engine must re-derive key arrangements from
   verified stream orders and fall back to hash joins when they do not
   cover). The planner half re-derives every elision certificate at
   the data level: when [Order_plan] certifies an elision, the stream
   reaching the elided sort must itself arrive sorted on the requested
   keys under [Value.compare_total] — the strongest independent check of
   the ordering claim, trusting no planner code. *)
let order_strategies (c : Case.t) =
  let skip why =
    [ { oracle = "order/strategies"; verdict = Skip why };
      { oracle = "order/planner"; verdict = Skip why } ]
  in
  match c.Case.query with
  | A.Setop _ -> skip "set operation"
  | A.Spec q ->
    (match order_variants q with
     | [] -> skip "no plain column in the select list to order by"
     | variants ->
       let cat = Case.catalog c in
       let run ~sort_impl ~join_impl db hosts oq =
         let config =
           { (Engine.Exec.default_config ()) with
             Engine.Exec.sort_impl; join_impl }
         in
         Engine.Exec.run_query ~config db ~hosts oq
       in
       (* the sort strategy planned as [Optimizer.Physical.plan] composes
          it: [Order_plan] probed under [Join_plan]'s join plan, merge
          joins included *)
       let choose db oq =
         let join = Optimizer.Join_plan.choose ~database:db cat oq in
         let config =
           { (Engine.Exec.default_config ()) with
             Engine.Exec.join_impl = join.Optimizer.Join_plan.impl }
         in
         Optimizer.Order_plan.choose ~database:db ~config cat oq
       in
       let equal_lists a b =
         List.length a.Engine.Relation.rows = List.length b.Engine.Relation.rows
         && List.for_all2 Engine.Relation.equal_rows a.Engine.Relation.rows
              b.Engine.Relation.rows
       in
       (* a malformed-by-construction plan: FROM order, merge everywhere;
          the engine's arrangement re-derivation is what keeps it safe *)
       let all_merge_plan =
         let n = List.length q.A.from in
         if n < 2 then None
         else
           Some
             (Engine.Exec.Planned_join
                {
                  jo_first = 0;
                  jo_steps =
                    List.init (n - 1) (fun k ->
                        {
                          Engine.Exec.js_leaf = k + 1;
                          js_unique_build = false;
                          js_merge = true;
                        });
                })
       in
       let for_variants check =
         on_instances c (fun db hosts i ->
             let rec go = function
               | [] -> None
               | keys :: rest ->
                 (match check db hosts i keys with
                  | None -> go rest
                  | some -> some)
             in
             go variants)
       in
       let strategies =
         guard (fun () ->
             for_variants (fun db hosts i keys ->
                 let oq = A.Spec { q with A.order_by = keys } in
                 let choice = choose db oq in
                 let join_impl = choice.Optimizer.Order_plan.join_impl in
                 (* the stable sort keeps arrival order within ties, so
                    the reference joins in the planned order, trusting
                    none of its certificates *)
                 let reference =
                   run ~sort_impl:Engine.Exec.Materialize_sort
                     ~join_impl:
                       (Engine.Exec.withdraw ~unique_builds:true ~merges:true
                          join_impl)
                     db hosts oq
                 in
                 let planned =
                   run ~sort_impl:choice.Optimizer.Order_plan.impl ~join_impl
                     db hosts oq
                 in
                 if not (equal_lists reference planned) then
                   Some
                     (Printf.sprintf
                        "instance %d: planned order strategy %s is not \
                         list-equal to the materializing sort over hash \
                         joins in the same order"
                        i choice.Optimizer.Order_plan.name)
                 else
                   match all_merge_plan with
                   | None -> None
                   | Some impl ->
                     let baseline =
                       run ~sort_impl:Engine.Exec.Materialize_sort
                         ~join_impl:Engine.Exec.Hash_join db hosts oq
                     in
                     let merged =
                       run ~sort_impl:Engine.Exec.Materialize_sort
                         ~join_impl:impl db hosts oq
                     in
                     if equal_lists baseline merged then None
                     else
                       Some
                         (Printf.sprintf
                            "instance %d: blind all-merge join plan is not \
                             list-equal to FROM-order hash joins"
                            i)))
       in
       let planner =
         guard (fun () ->
             for_variants (fun db hosts i keys ->
                 let oq = A.Spec { q with A.order_by = keys } in
                 let choice = choose db oq in
                 if
                   choice.Optimizer.Order_plan.impl <> Engine.Exec.Elided_sort
                 then None
                 else begin
                   let elided =
                     run ~sort_impl:Engine.Exec.Elided_sort
                       ~join_impl:choice.Optimizer.Order_plan.join_impl db
                       hosts oq
                   in
                   if sorted_on_keys { q with A.order_by = keys }
                        elided.Engine.Relation.rows
                   then None
                   else
                     Some
                       (Printf.sprintf
                          "instance %d: Order_plan certified an elision but \
                           the stream does not arrive sorted on the \
                           requested keys"
                          i)
                 end))
       in
       [ { oracle = "order/strategies"; verdict = strategies };
         { oracle = "order/planner"; verdict = planner } ])

(* ---- the composed physical plan ---- *)

(* [Optimizer.Physical.plan] runs the planner's rewrite under the three
   authorities' composed configuration; the oracles above probe one
   authority at a time. This one runs the plan against the as-written
   query under the all-baseline one (sort DISTINCT, nested join,
   materializing sort, nested-loop EXISTS) on the case query, its
   DISTINCT form, and the [order_variants] of both: every planned result
   must be bag-equal to the baseline, and an ordered one must arrive
   sorted on its keys. Its two-valued variant plans each form's
   [Optimizer.Physical.two_valued] translation (run under three-valued
   logic) and compares it with the as-written form under the engine's
   two-valued evaluator, the reference for that logic. *)
let plan_composition ?cache (c : Case.t) =
  let cat = Case.catalog c in
  let forms =
    match c.Case.query with
    | A.Setop _ -> [ c.Case.query ]
    | A.Spec q ->
      let d = { q with A.distinct = A.Distinct } in
      let ordered s =
        List.map (fun keys -> { s with A.order_by = keys }) (order_variants q)
      in
      List.fold_left
        (fun acc s -> if List.mem (A.Spec s) acc then acc else acc @ [ A.Spec s ])
        [] ((q :: d :: ordered q) @ ordered d)
  in
  let baseline logic =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.distinct_impl = Engine.Exec.Sort_distinct;
      join_impl = Engine.Exec.Nested_join;
      sort_impl = Engine.Exec.Materialize_sort;
      logic }
  in
  let check logic db hosts i form =
    let planned_form =
      match logic with
      | Sqlval.Logic_mode.L2 -> Optimizer.Physical.two_valued cat form
      | Sqlval.Logic_mode.L3 -> form
    in
    let p = Optimizer.Physical.plan ?cache ~database:db cat planned_form in
    let planned =
      Engine.Exec.run_query ~config:p.Optimizer.Physical.config db ~hosts
        p.Optimizer.Physical.query
    in
    let base = Engine.Exec.run_query ~config:(baseline logic) db ~hosts form in
    let fail what =
      Some
        (Printf.sprintf "instance %d: planned %s, %s/%s/%s %s on %s" i
           p.Optimizer.Physical.strategy.Optimizer.Planner.name
           p.Optimizer.Physical.distinct.Optimizer.Distinct_plan.name
           p.Optimizer.Physical.join.Optimizer.Join_plan.name
           p.Optimizer.Physical.order.Optimizer.Order_plan.name what
           (Sql.Pretty.query form))
    in
    if not (Engine.Relation.equal_bags base planned) then
      fail
        (Printf.sprintf "is not bag-equal to the baseline (%d vs %d rows)"
           (Engine.Relation.cardinality planned)
           (Engine.Relation.cardinality base))
    else
      match form with
      | A.Spec s when s.A.order_by <> []
                      && not (sorted_on_keys s planned.Engine.Relation.rows) ->
        fail "does not arrive sorted on the ORDER BY keys"
      | A.Spec _ | A.Setop _ -> None
  in
  List.map
    (fun (oracle, logic) ->
      { oracle;
        verdict =
          guard (fun () ->
              on_instances c (fun db hosts i ->
                  List.find_map (check logic db hosts i) forms)) })
    [ ("plan/composed", Sqlval.Logic_mode.L3);
      ("plan/2vl", Sqlval.Logic_mode.L2) ]

let groups ?max_cells ?cache () =
  [ ("uniqueness", fun c -> uniqueness ?cache c);
    ("rewrite", fun c -> rewrite ?cache c);
    ("agreement", fun c -> agreement ?max_cells ?cache c);
    ("symbolic", fun c -> symbolic ?max_cells ?cache c);
    ("logic", logic_agreement);
    ("cache", cache_consistency);
    ("distinct", fun c -> distinct_strategies ?cache c);
    ("join", fun c -> join_strategies ?cache c);
    ("order", order_strategies);
    ("plan", fun c -> plan_composition ?cache c) ]

let group_names = List.map fst (groups ())

let all ?max_cells ?cache ?(only = []) c =
  let gs = groups ?max_cells ?cache () in
  let gs =
    if only = [] then gs
    else begin
      List.iter
        (fun name ->
          if not (List.mem_assoc name gs) then
            invalid_arg
              (Printf.sprintf "unknown oracle group %S (available: %s)" name
                 (String.concat ", " (List.map fst gs))))
        only;
      List.filter (fun (name, _) -> List.mem name only) gs
    end
  in
  List.concat_map (fun (_, f) -> f c) gs

let failures fs =
  List.filter (fun f -> match f.verdict with Fail _ -> true | Pass | Skip _ -> false) fs

let pp_finding ppf f =
  let s, msg =
    match f.verdict with
    | Pass -> ("pass", "")
    | Skip m -> ("skip", ": " ^ m)
    | Fail m -> ("FAIL", ": " ^ m)
  in
  Format.fprintf ppf "%s %s%s" s f.oracle msg
