type step = {
  leaf : int;
  leaf_name : string;
  equis : int;
  unique_build : bool;
  merge : bool;
  cert_spec : Sql.Ast.query_spec option;
  build_rows : float;
  probe_rows : float;
  est : Cost.estimate;
}

type choice = {
  impl : Engine.Exec.join_impl;
  name : string;
  reason : string;
  first : int;
  steps : step list;
  est_cost : float;
  sort_charge : float;
  from_order_cost : float;
  unique_builds : int;
  merge_joins : int;
}

let applicable (q : Sql.Ast.query) =
  match q with
  | Sql.Ast.Spec spec -> List.length spec.Sql.Ast.from >= 2
  | Sql.Ast.Setop _ -> false

let fallback ~name ~reason =
  {
    impl = Engine.Exec.Hash_join;
    name;
    reason;
    first = 0;
    steps = [];
    est_cost = 0.0;
    sort_charge = 0.0;
    from_order_cost = 0.0;
    unique_builds = 0;
    merge_joins = 0;
  }

(* The unique builds that will run: a step costed as a merge join builds
   no hash table, so its certificate (still passed to the engine) is not
   narrated as a build. *)
let hash_unique_builds steps =
  List.length (List.filter (fun st -> st.unique_build && not st.merge) steps)

(* Verified physical order of each FROM leaf, qualified exactly as the
   executor's scan does. Views hold no stored rows, so no order. *)
let leaf_orders db cat (spec : Sql.Ast.query_spec) =
  Array.of_list
    (List.map
       (fun (f : Sql.Ast.from_item) ->
         match Catalog.find cat f.Sql.Ast.table with
         | Some def when not (Catalog.is_view def) ->
           let corr = Sql.Ast.from_name f in
           List.map
             (fun c -> Schema.Attr.make ~rel:corr ~name:c)
             (Engine.Database.order db f.Sql.Ast.table)
         | Some _ | None -> [])
       spec.Sql.Ast.from)

(* The order enumeration proper; raises (Unknown_table / Unknown_column /
   Failure) on unresolvable references — [choose] catches and degrades.
   [leaf_order.(i)] is leaf [i]'s verified physical order, qualified as
   the executor's scan does. *)
let plan ?cache cat stats leaf_order (spec : Sql.Ast.query_spec) =
  let leaves = Array.of_list spec.Sql.Ast.from in
  let n = Array.length leaves in
  let corrs = Array.map Sql.Ast.from_name leaves in
  let resolve = Fd.Derive.resolver cat spec.Sql.Ast.from in
  let conjs = Sql.Ast.conjuncts spec.Sql.Ast.where in
  let rels_of c =
    if Sql.Ast.contains_exists c then None
    else
      Some
        (List.sort_uniq compare
           (List.map
              (fun a -> (resolve a).Schema.Attr.rel)
              (Sql.Ast.cols_of_pred c)))
  in
  (* single-leaf conjuncts, attributed exactly as the engine pushes them *)
  let pushed =
    Array.map
      (fun corr ->
        Sql.Ast.conj (List.filter (fun c -> rels_of c = Some [ corr ]) conjs))
      corrs
  in
  (* cross-leaf equality edges, resolved to qualified attributes *)
  let edges =
    List.filter_map
      (function
        | Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Col x, Sql.Ast.Col y) ->
          let rx = resolve x and ry = resolve y in
          if String.equal rx.Schema.Attr.rel ry.Schema.Attr.rel then None
          else Some (rx, ry)
        | _ -> None)
      conjs
  in
  let leaf_est =
    Array.init n (fun i -> Cost.restrict cat stats leaves.(i) pushed.(i))
  in
  let rec is_prefix keys order =
    match (keys, order) with
    | [], _ -> true
    | k :: ks, o :: os -> Schema.Attr.equal k o && is_prefix ks os
    | _ :: _, [] -> false
  in
  (* The stream arrives in the order of the leaf the probe pipeline starts
     from: joins keep the probe side's order and pushed filters keep the
     leaf's. A start whose stored order begins with the ORDER BY keys may
     have its sort elided; every other start is charged the sort at its
     estimated output cardinality. Grouping emits no order, so a grouped
     query is charged at every start. [Order_plan] alone certifies the
     elision; this is only the estimate the order search ranks by. *)
  let sort_keys =
    if spec.Sql.Ast.group_by <> [] then None
    else
      try
        Some
          (List.map
             (function Sql.Ast.Col a -> resolve a | _ -> raise Exit)
             spec.Sql.Ast.order_by)
      with _ -> None
  in
  let starts_sorted i =
    match sort_keys with
    | None | Some [] -> false
    | Some keys -> is_prefix keys leaf_order.(i)
  in
  let sort_charge start (est : Cost.estimate) =
    if spec.Sql.Ast.order_by = [] || starts_sorted start then 0.0
    else Cost.sort ~card:est.Cost.card
  in
  (* synthetic DISTINCT spec whose Algorithm 1 YES is exactly the
     unique-build certificate: the build-side join columns, projected
     DISTINCT from the filtered leaf, are duplicate-free iff they cover a
     derived candidate key *)
  let cert_spec i cols =
    {
      Sql.Ast.distinct = Sql.Ast.Distinct;
      select = Sql.Ast.Cols (List.map (fun a -> Sql.Ast.Col a) cols);
      from = [ leaves.(i) ];
      where = pushed.(i);
      group_by = [];
      order_by = [];
    }
  in
  let cert_memo = Hashtbl.create 8 in
  let certified i cols =
    match Hashtbl.find_opt cert_memo (i, cols) with
    | Some b -> b
    | None ->
      let b =
        try Uniqueness.Algorithm1.distinct_is_redundant ?cache cat (cert_spec i cols)
        with _ -> false
      in
      Hashtbl.add cert_memo (i, cols) b;
      b
  in
  (* one candidate step: join leaf [j] into a partial result covering the
     correlation names [in_set], started at leaf [start], with running
     estimate [outer]. When both the probe stream (ordered as [start]) and
     the leaf are stored in an order that follows the join keys, the step
     is costed as, and certified for, a merge join. *)
  let step_for ~start in_set (outer : Cost.estimate) j =
    let jc = corrs.(j) in
    let pairs =
      List.filter_map
        (fun (rx, ry) ->
          if String.equal ry.Schema.Attr.rel jc && List.mem rx.Schema.Attr.rel in_set
          then Some (rx, ry)
          else if
            String.equal rx.Schema.Attr.rel jc && List.mem ry.Schema.Attr.rel in_set
          then Some (ry, rx)
          else None)
        edges
    in
    let equis = List.length pairs in
    let build_cols = List.sort_uniq compare (List.map snd pairs) in
    let unique_build = equis > 0 && certified j build_cols in
    let merge =
      equis > 0
      && Engine.Exec.arrange_for_merge leaf_order.(start) leaf_order.(j) pairs
         <> None
    in
    let inner = leaf_est.(j) in
    let est =
      if merge then Cost.merge_step ~outer ~inner ~equis ~unique_build
      else Cost.join_step ~outer ~inner ~equis ~unique_build
    in
    {
      leaf = j;
      leaf_name = jc;
      equis;
      unique_build;
      merge;
      cert_spec = (if unique_build then Some (cert_spec j build_cols) else None);
      build_rows = inner.Cost.card;
      probe_rows = outer.Cost.card;
      est;
    }
  in
  (* evaluate a fixed visit order (used for the FROM-order yardstick) *)
  let eval_order = function
    | [] -> invalid_arg "Join_plan.eval_order"
    | first :: rest ->
      let _, outer, steps =
        List.fold_left
          (fun (in_set, outer, steps) j ->
            let st = step_for ~start:first in_set outer j in
            (corrs.(j) :: in_set, st.est, st :: steps))
          ([ corrs.(first) ], leaf_est.(first), [])
          rest
      in
      (first, List.rev steps, outer)
  in
  (* greedy completion from a given start leaf: repeatedly take the
     cheapest next step; a tie goes to the smaller build side, then to
     the smaller leaf index, so the result is deterministic *)
  let greedy s =
    let rec go in_set outer acc remaining =
      match remaining with
      | [] -> (s, List.rev acc, outer)
      | _ ->
        let st =
          List.fold_left
            (fun best j ->
              let st = step_for ~start:s in_set outer j in
              match best with
              | Some b
                when compare
                       (st.est.Cost.cost, st.build_rows)
                       (b.est.Cost.cost, b.build_rows)
                     >= 0 ->
                best
              | _ -> Some st)
            None remaining
          |> Option.get
        in
        go (st.leaf_name :: in_set) st.est (st :: acc)
          (List.filter (fun k -> k <> st.leaf) remaining)
    in
    go [ corrs.(s) ] leaf_est.(s) []
      (List.filter (fun k -> k <> s) (List.init n Fun.id))
  in
  (* the cheapest completed order, its sort charge included; a tie goes
     to fewer build rows in total, then to the smaller start index *)
  let ranked (first, steps, (est : Cost.estimate)) =
    let charge = sort_charge first est in
    let built = List.fold_left (fun acc st -> acc +. st.build_rows) 0.0 steps in
    ((first, steps), charge, (est.Cost.cost +. charge, built))
  in
  let (first, steps), charge, (cost, _) =
    List.fold_left
      (fun best s ->
        let ((_, _, key) as r) = ranked (greedy s) in
        match best with
        | Some (_, _, bkey) when compare key bkey >= 0 -> best
        | _ -> Some r)
      None (List.init n Fun.id)
    |> Option.get
  in
  let _, _, (from_cost, _) = ranked (eval_order (List.init n Fun.id)) in
  let unique_builds =
    List.length (List.filter (fun st -> st.unique_build) steps)
  in
  let hash_unique_builds = hash_unique_builds steps in
  let merge_joins = List.length (List.filter (fun st -> st.merge) steps) in
  let order_str =
    String.concat " -> " (corrs.(first) :: List.map (fun st -> st.leaf_name) steps)
  in
  let rows name r = Printf.sprintf "%s (%.0f rows)" name r in
  {
    impl =
      Engine.Exec.Planned_join
        {
          jo_first = first;
          jo_steps =
            List.map
              (fun st ->
                {
                  Engine.Exec.js_leaf = st.leaf;
                  js_unique_build = st.unique_build;
                  js_merge = st.merge;
                })
              steps;
        };
    name = "cost-ordered";
    reason =
      Printf.sprintf
        "greedy key-aware order %s: probe %s, build %s; %d unique build(s), \
         %d merge join(s), est cost %.0f%s vs FROM-order %.0f"
        order_str
        (rows corrs.(first) leaf_est.(first).Cost.card)
        (String.concat ", "
           (List.map (fun st -> rows st.leaf_name st.build_rows) steps))
        hash_unique_builds merge_joins cost
        (if charge > 0.0 then Printf.sprintf " (sort charge %.0f)" charge
         else "")
        from_cost;
    first;
    steps;
    est_cost = cost;
    sort_charge = charge;
    from_order_cost = from_cost;
    unique_builds;
    merge_joins;
  }

let choose ?cache ?(trace = Trace.disabled) ?database ?stats cat
    (q : Sql.Ast.query) =
  let stats_source, stats = Cost.source ?database ?stats () in
  let c =
    match q with
    | Sql.Ast.Spec spec when applicable q -> (
      try
        (* without an instance no stored order is known *)
        let leaf_order =
          match database with
          | Some db -> leaf_orders db cat spec
          | None -> Array.make (List.length spec.Sql.Ast.from) []
        in
        plan ?cache cat stats leaf_order spec
      with _ ->
        fallback ~name:"from-order"
          ~reason:
            "join analysis failed (unresolvable reference): FROM-order \
             hash join")
    | Sql.Ast.Spec _ | Sql.Ast.Setop _ ->
      fallback ~name:"none"
        ~reason:"single-table or set-operation query: no join order to plan"
  in
  Trace.emitf trace (fun () ->
      let names =
        match q with
        | Sql.Ast.Spec spec ->
          List.map (fun st -> st.leaf_name) c.steps
          |> List.cons (Sql.Ast.from_name (List.nth spec.Sql.Ast.from c.first))
        | Sql.Ast.Setop _ -> []
      in
      let step_nodes =
        List.mapi
          (fun i st ->
            Trace.node ~rule:"planner.join.step"
              ~facts:
                [ ("build", st.leaf_name);
                  ("build-rows", Printf.sprintf "%.0f" st.build_rows);
                  ( "probe",
                    String.concat " -> " (List.filteri (fun k _ -> k <= i) names) );
                  ("probe-rows", Printf.sprintf "%.0f" st.probe_rows);
                  ("equi-edges", string_of_int st.equis);
                  ( "unique-build",
                    if st.merge then "n/a (merge join)"
                    else if st.unique_build then "yes"
                    else "no" );
                  ("merge", if st.merge then "yes" else "no");
                  ("est-card", Printf.sprintf "%.0f" st.est.Cost.card);
                  ("est-cost", Printf.sprintf "%.0f" st.est.Cost.cost) ]
              ~verdict:Trace.Info
              (if st.merge then
                 "both sides stored in join-key order: costed as a merge join"
               else if st.unique_build then
                 "build columns cover a derived candidate key: one flat row \
                  per key, early-exit probes"
               else "generic hash build (bucket lists)"))
          c.steps
      in
      let unique_builds = hash_unique_builds c.steps in
      Trace.node ~rule:"planner.join"
        ?citation:(if unique_builds > 0 then Some "Theorem 1" else None)
        ~verdict:Trace.Chosen
        ~inputs:[ ("query", Sql.Pretty.query q) ]
        ~facts:
          ([ ("strategy", c.name);
             ( "order",
               match c.steps with [] -> "-" | _ -> String.concat " -> " names );
             ("unique-builds", string_of_int unique_builds);
             ("merge-joins", string_of_int c.merge_joins) ]
          @ (if c.sort_charge > 0.0 then
               [ ("sort-charge", Printf.sprintf "%.0f" c.sort_charge) ]
             else [])
          @ [ ("est-cost", Printf.sprintf "%.0f" c.est_cost);
              ("from-order-cost", Printf.sprintf "%.0f" c.from_order_cost);
              ("stats", stats_source) ])
        ~children:step_nodes c.reason);
  c
