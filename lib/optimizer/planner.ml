module R = Uniqueness.Rewrite

type strategy = {
  name : string;
  query : Sql.Ast.query;
  estimate : Cost.estimate;
}

let strategy cat stats name query =
  { name; query; estimate = Cost.query cat stats query }

let strategy_node ?(verdict = Trace.Info) s =
  Trace.node ~rule:"planner.strategy" ~verdict
    ~inputs:[ ("strategy", s.name) ]
    ~facts:
      [ ("cost", Printf.sprintf "%.1f" s.estimate.Cost.cost);
        ("card", Printf.sprintf "%.1f" s.estimate.Cost.card);
        ("query", Sql.Pretty.query s.query) ]
    (if verdict = Trace.Chosen then "cheapest estimate wins"
     else "costed execution strategy")

let enumerate ?(with_rewrites = true) ?cache ?(trace = Trace.disabled) cat stats q =
  let original = strategy cat stats "as-written" q in
  if not with_rewrites then begin
    Trace.emitf trace (fun () -> strategy_node original);
    [ original ]
  end
  else begin
    let candidates = ref [] in
    let note ?analyzer name (o : R.outcome) =
      (* every attempt leaves its decision node, fired or refused *)
      Trace.emitf trace (fun () ->
          let n = R.node_of_outcome o in
          match analyzer with
          | None -> n
          | Some a -> { n with Trace.inputs = [ ("analyzer", a) ] });
      if o.R.applied then candidates := strategy cat stats name o.R.result :: !candidates
    in
    (* Theorem 1 under both analyzers; when they reach the same outcome it
       is narrated once (its strategy would be deduplicated below anyway) *)
    let alg1 = R.remove_redundant_distinct ~analyzer:R.Algorithm1 ?cache cat q in
    let fd = R.remove_redundant_distinct ~analyzer:R.Fd_closure ?cache cat q in
    if
      alg1.R.applied = fd.R.applied
      && Sql.Pretty.query alg1.R.result = Sql.Pretty.query fd.R.result
    then note ~analyzer:"Algorithm 1, FD closure" "distinct-removed (Alg. 1)" alg1
    else begin
      note ~analyzer:"Algorithm 1" "distinct-removed (Alg. 1)" alg1;
      note ~analyzer:"FD closure" "distinct-removed (FD)" fd
    end;
    note "intersect-to-exists" (R.intersect_to_exists ?cache cat q);
    note "except-to-not-exists" (R.except_to_not_exists ?cache cat q);
    note "group-by-removed" (R.remove_redundant_group_by cat q);
    (match q with
     | Sql.Ast.Spec spec ->
       note "subquery-to-join" (R.subquery_to_join ?cache cat spec);
       note "join-to-subquery" (R.join_to_subquery cat spec);
       note "join-eliminated" (R.eliminate_joins cat spec);
       note "predicates-pruned" (R.remove_implied_predicates cat spec)
     | Sql.Ast.Setop _ -> ());
    (* compose: unnest + drop distinct, etc. *)
    let composed, outcomes = R.apply_all ?cache cat q in
    if outcomes <> [] && composed <> q then
      candidates := strategy cat stats "rewrites-composed" composed :: !candidates;
    (* dedupe by resulting query *)
    let seen = Hashtbl.create 8 in
    let uniq =
      List.filter
        (fun s ->
          let key = Sql.Pretty.query s.query in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (original :: List.rev !candidates)
    in
    if Trace.enabled trace then
      List.iter (fun s -> Trace.emit trace (strategy_node s)) uniq;
    uniq
  end

let choose ?with_rewrites ?cache ?(trace = Trace.disabled) cat stats q =
  let all = enumerate ?with_rewrites ?cache ~trace cat stats q in
  match all with
  | [] -> assert false
  | first :: rest ->
    let best =
      List.fold_left
        (fun best s ->
          if s.estimate.Cost.cost < best.estimate.Cost.cost then s else best)
        first rest
    in
    Trace.emitf trace (fun () -> strategy_node ~verdict:Trace.Chosen best);
    best

let pp_strategy ppf s =
  Format.fprintf ppf "%-28s cost=%12.1f card=%10.1f  %s" s.name
    s.estimate.Cost.cost s.estimate.Cost.card
    (Sql.Pretty.query s.query)
