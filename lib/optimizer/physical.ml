type t = {
  strategy : Planner.strategy;
  query : Sql.Ast.query;
  config : Engine.Exec.config;
  distinct : Distinct_plan.choice;
  join : Join_plan.choice;
  order : Order_plan.choice;
}

let plan ?cache ?planner_trace ?distinct_trace ?join_trace ?order_trace
    ?database ?stats ?(logic = Sqlval.Logic_mode.default) cat q =
  let table_stats =
    match (database, stats) with
    | Some db, _ -> Engine.Database.row_count db
    | None, Some s -> s
    | None, None -> fun _ -> 1000
  in
  let strategy =
    Planner.choose ?cache ?trace:planner_trace cat table_stats
      (Uniqueness.Views.expand_query cat q)
  in
  let query = strategy.Planner.query in
  let join = Join_plan.choose ?cache ?trace:join_trace ?database ?stats cat query in
  let joined =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.logic;
      join_impl = join.Join_plan.impl;
      exists_impl = Engine.Exec.Indexed_exists }
  in
  (* the DISTINCT path is narrated from the stream the join order
     delivers; the merge joins [Order_plan] adds keep the probe side's
     order, so that stream arrives in the same order in the final plan *)
  let distinct =
    Distinct_plan.choose ?cache ?trace:distinct_trace ?database
      ~config:joined cat query
  in
  let probed =
    { joined with Engine.Exec.distinct_impl = distinct.Distinct_plan.impl }
  in
  let order =
    Order_plan.choose ?trace:order_trace ?database ~config:probed ?stats cat
      query
  in
  { strategy;
    query;
    config =
      { probed with
        Engine.Exec.join_impl = order.Order_plan.join_impl;
        sort_impl = order.Order_plan.impl };
    distinct;
    join;
    order }
