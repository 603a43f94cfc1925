type t = {
  query : Sql.Ast.query;
  config : Engine.Exec.config;
  distinct : Distinct_plan.choice;
  join : Join_plan.choice;
  order : Order_plan.choice;
}

let plan ?cache ?distinct_trace ?join_trace ?order_trace ?database ?stats
    ?(logic = Sqlval.Logic_mode.default) cat q =
  let query = Uniqueness.Views.expand_query cat q in
  let distinct =
    Distinct_plan.choose ?cache ?trace:distinct_trace ?database cat query
  in
  let join = Join_plan.choose ?cache ?trace:join_trace ?database ?stats cat query in
  let probed =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.logic;
      distinct_impl = distinct.Distinct_plan.impl;
      join_impl = join.Join_plan.impl }
  in
  let order =
    Order_plan.choose ?trace:order_trace ?database ~config:probed ?stats cat
      query
  in
  { query;
    config =
      { probed with
        Engine.Exec.join_impl = order.Order_plan.join_impl;
        sort_impl = order.Order_plan.impl };
    distinct;
    join;
    order }
