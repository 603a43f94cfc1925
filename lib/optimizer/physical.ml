type t = {
  strategy : Planner.strategy;
  query : Sql.Ast.query;
  config : Engine.Exec.config;
  distinct : Distinct_plan.choice;
  join : Join_plan.choice;
  order : Order_plan.choice;
}

let plan ?cache ?planner_trace ?distinct_trace ?join_trace ?order_trace
    ?database ?stats cat q =
  let _, table_stats = Cost.source ?database ?stats () in
  let strategy =
    Planner.choose ?cache ?trace:planner_trace cat table_stats
      (Uniqueness.Views.expand_query cat q)
  in
  let query = strategy.Planner.query in
  let join = Join_plan.choose ?cache ?trace:join_trace ?database ?stats cat query in
  let config =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.join_impl = join.Join_plan.impl;
      exists_impl = Engine.Exec.Indexed_exists }
  in
  let distinct =
    Distinct_plan.choose ?cache ?trace:distinct_trace ?database ~config cat
      query
  in
  let config = { config with Engine.Exec.distinct_impl = distinct.Distinct_plan.impl } in
  let order =
    Order_plan.choose ?trace:order_trace ?database ~config ?stats cat query
  in
  { strategy;
    query;
    config = { config with Engine.Exec.sort_impl = order.Order_plan.impl };
    distinct;
    join;
    order }

let two_valued cat q =
  Logic.Two_valued.query (Uniqueness.Views.expand_query cat q)
