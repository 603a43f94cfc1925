type step = {
  leaf : int;
  leaf_name : string;
  equis : int;
  unique_build : bool;
  cert_spec : Sql.Ast.query_spec option;
  est : Cost.estimate;
}

type choice = {
  impl : Engine.Exec.join_impl;
  name : string;
  reason : string;
  first : int;
  steps : step list;
  est_cost : float;
  from_order_cost : float;
  unique_builds : int;
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
    from_order_cost = 0.0;
    unique_builds = 0;
  }

(* The order enumeration proper; raises (Unknown_table / Unknown_column /
   Failure) on unresolvable references — [choose] catches and degrades. *)
let plan ?cache cat stats (spec : Sql.Ast.query_spec) =
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
     correlation names [in_set], with running estimate [outer] *)
  let step_for in_set (outer : Cost.estimate) j =
    let jc = corrs.(j) in
    let my_edges =
      List.filter_map
        (fun (rx, ry) ->
          if String.equal ry.Schema.Attr.rel jc && List.mem rx.Schema.Attr.rel in_set
          then Some ry
          else if
            String.equal rx.Schema.Attr.rel jc && List.mem ry.Schema.Attr.rel in_set
          then Some rx
          else None)
        edges
    in
    let equis = List.length my_edges in
    let build_cols = List.sort_uniq compare my_edges in
    let unique_build = equis > 0 && certified j build_cols in
    let est = Cost.join_step ~outer ~inner:leaf_est.(j) ~equis ~unique_build in
    {
      leaf = j;
      leaf_name = jc;
      equis;
      unique_build;
      cert_spec = (if unique_build then Some (cert_spec j build_cols) else None);
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
            let st = step_for in_set outer j in
            (corrs.(j) :: in_set, st.est, st :: steps))
          ([ corrs.(first) ], leaf_est.(first), [])
          rest
      in
      (first, List.rev steps, outer)
  in
  (* greedy completion from a given start leaf: repeatedly take the
     cheapest next step (ties to the smallest leaf index, so the result
     is deterministic) *)
  let greedy s =
    let rec go in_set outer acc remaining =
      match remaining with
      | [] -> (s, List.rev acc, outer)
      | _ ->
        let j, st =
          List.fold_left
            (fun best j ->
              let st = step_for in_set outer j in
              match best with
              | Some (_, bst) when st.est.Cost.cost >= bst.est.Cost.cost ->
                best
              | _ -> Some (j, st))
            None remaining
          |> Option.get
        in
        go (corrs.(j) :: in_set) st.est (st :: acc)
          (List.filter (fun k -> k <> j) remaining)
    in
    go [ corrs.(s) ] leaf_est.(s) []
      (List.filter (fun k -> k <> s) (List.init n Fun.id))
  in
  let best =
    List.fold_left
      (fun best s ->
        let (_, _, est) as cand = greedy s in
        match best with
        | Some (_, _, b) when est.Cost.cost >= b.Cost.cost -> best
        | _ -> Some cand)
      None (List.init n Fun.id)
    |> Option.get
  in
  let _, _, from_est = eval_order (List.init n Fun.id) in
  let first, steps, est = best in
  let unique_builds =
    List.length (List.filter (fun st -> st.unique_build) steps)
  in
  let order_str =
    String.concat " -> " (corrs.(first) :: List.map (fun st -> st.leaf_name) steps)
  in
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
                  js_merge = false;
                })
              steps;
        };
    name = "cost-ordered";
    reason =
      Printf.sprintf
        "greedy key-aware order %s: %d unique build(s), est cost %.0f vs \
         FROM-order %.0f"
        order_str unique_builds est.Cost.cost from_est.Cost.cost;
    first;
    steps;
    est_cost = est.Cost.cost;
    from_order_cost = from_est.Cost.cost;
    unique_builds;
  }

let choose ?cache ?(trace = Trace.disabled) ?database ?stats cat
    (q : Sql.Ast.query) =
  let stats_source, stats =
    match (database, stats) with
    | Some db, _ -> ("database", fun t -> Engine.Database.row_count db t)
    | None, Some s -> ("callback", s)
    | None, None -> ("default 1000", fun _ -> 1000)
  in
  let c =
    match q with
    | Sql.Ast.Spec spec when applicable q -> (
      try plan ?cache cat stats spec
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
      let step_nodes =
        List.map
          (fun st ->
            Trace.node ~rule:"planner.join.step"
              ~facts:
                [ ("leaf", st.leaf_name);
                  ("equi-edges", string_of_int st.equis);
                  ("unique-build", if st.unique_build then "yes" else "no");
                  ("est-card", Printf.sprintf "%.0f" st.est.Cost.card);
                  ("est-cost", Printf.sprintf "%.0f" st.est.Cost.cost) ]
              ~verdict:Trace.Info
              (if st.unique_build then
                 "build columns cover a derived candidate key: one flat row \
                  per key, early-exit probes"
               else "generic hash build (bucket lists)"))
          c.steps
      in
      Trace.node ~rule:"planner.join"
        ?citation:(if c.unique_builds > 0 then Some "Theorem 1" else None)
        ~verdict:Trace.Chosen
        ~inputs:[ ("query", Sql.Pretty.query q) ]
        ~facts:
          [ ("strategy", c.name);
            ( "order",
              match c.steps with
              | [] -> "-"
              | _ ->
                String.concat " -> "
                  ((match q with
                   | Sql.Ast.Spec spec ->
                     Sql.Ast.from_name (List.nth spec.Sql.Ast.from c.first)
                   | Sql.Ast.Setop _ -> "?")
                  :: List.map (fun st -> st.leaf_name) c.steps) );
            ("unique-builds", string_of_int c.unique_builds);
            ("est-cost", Printf.sprintf "%.0f" c.est_cost);
            ("from-order-cost", Printf.sprintf "%.0f" c.from_order_cost);
            ("stats", stats_source) ]
        ~children:step_nodes c.reason);
  c
