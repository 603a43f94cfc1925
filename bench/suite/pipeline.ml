(* The query path a user runs, composed from public entry points the way
   `uniqsql run` composes them in auto mode: parse -> view expansion ->
   rewrite-and-cost (paper section 5, Planner.choose) -> the DISTINCT,
   join and ORDER BY certificate authorities -> execution. The whole
   composition lives in this file so that one call to a single physical
   planner can replace it without touching the workloads. *)

type plan = {
  query : Sql.Ast.query;  (* the strategy Planner.choose picked *)
  config : Engine.Exec.config;
  rewritten : bool;  (* the planner chose a uniqueness rewrite *)
}

let plan (h : Spans.hook) cat db q =
  let q = h.span "uniqueness.views" (fun () -> Uniqueness.Views.expand_query cat q) in
  let chosen =
    h.span "optimizer.planner" (fun () ->
        Optimizer.Planner.choose cat (Engine.Database.row_count db) q)
  in
  let q = chosen.Optimizer.Planner.query in
  let distinct =
    h.span "optimizer.distinct_plan" (fun () ->
        Optimizer.Distinct_plan.choose ~database:db cat q)
  in
  let join =
    h.span "optimizer.join_plan" (fun () ->
        Optimizer.Join_plan.choose ~database:db cat q)
  in
  let probe_config =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.distinct_impl = distinct.Optimizer.Distinct_plan.impl;
      join_impl = join.Optimizer.Join_plan.impl }
  in
  let order =
    h.span "optimizer.order_plan" (fun () ->
        Optimizer.Order_plan.choose ~database:db ~config:probe_config cat q)
  in
  { query = q;
    config =
      { (Engine.Exec.default_config ()) with
        Engine.Exec.distinct_impl = distinct.Optimizer.Distinct_plan.impl;
        join_impl = order.Optimizer.Order_plan.join_impl;
        sort_impl = order.Optimizer.Order_plan.impl };
    rewritten = chosen.Optimizer.Planner.name <> "as-written" }

(* Untraced, this is [Exec.run_query]; traced, it is the three calls
   [run_query] composes, each under its own span. *)
let execute (h : Spans.hook) db ~hosts p =
  if h == Spans.untraced then
    Engine.Exec.run_query ~config:p.config db ~hosts p.query
  else
    let plan =
      h.span "relalg.translate" (fun () ->
          Relalg.Plan.of_query (Engine.Database.catalog db) p.query)
    in
    let op =
      h.span "engine.compile" (fun () ->
          Engine.Exec.compile ~config:p.config db ~hosts plan)
    in
    h.span "engine.execute" (fun () -> Engine.Operator.to_relation op)

let run h cat db ~hosts sql =
  let q = h.Spans.span "sql.parse" (fun () -> Sql.Parser.parse_query sql) in
  let p = plan h cat db q in
  (p, execute h db ~hosts p)

(* Certificates the plan relies on: a uniqueness rewrite, elided DISTINCTs
   and sorts, unique hash builds and merge joins. *)
let certificates p =
  let s = p.config.Engine.Exec.stats in
  (if p.rewritten then 1 else 0)
  + s.Engine.Stats.distinct_elisions + s.Engine.Stats.sort_elisions
  + s.Engine.Stats.unique_builds + s.Engine.Stats.merge_joins

(* The reference answer: no planner rewrites and every
   certificate-trusting setting off — hash DISTINCT, the join planner's
   order with unique builds and merge joins withdrawn, a materializing
   sort. Indexed EXISTS trusts no certificate and keeps Examples 7 and 8
   affordable. Returns the result and the ORDER BY key positions in it. *)
let reference cat db ~hosts sql =
  let q = Uniqueness.Views.expand_query cat (Sql.Parser.parse_query sql) in
  let join_impl =
    match (Optimizer.Join_plan.choose ~database:db cat q).Optimizer.Join_plan.impl with
    | Engine.Exec.Planned_join jo ->
      Engine.Exec.Planned_join
        { jo with
          Engine.Exec.jo_steps =
            List.map
              (fun s ->
                { s with Engine.Exec.js_unique_build = false; js_merge = false })
              jo.Engine.Exec.jo_steps }
    | other -> other
  in
  let config =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.distinct_impl = Engine.Exec.Stream_hash;
      join_impl;
      sort_impl = Engine.Exec.Materialize_sort;
      exists_impl = Engine.Exec.Indexed_exists }
  in
  let base = Engine.Database.catalog db in
  let order_keys =
    match Relalg.Plan.of_query base q with
    | Relalg.Plan.Sort (keys, _) as p ->
      let schema = Relalg.Plan.schema base p in
      List.map (Schema.Relschema.index_of schema) keys
    | _ -> []
  in
  (Engine.Exec.run_query ~config db ~hosts q, order_keys)
