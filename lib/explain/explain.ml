type section = {
  title : string;
  nodes : Trace.node list;
}

type execution = {
  rows : int;
  counters : (string * int) list;
}

type report = {
  query : Sql.Ast.query;
  sections : section list;
  rewritten : Sql.Ast.query;
  chosen : Optimizer.Planner.strategy option;
  execution : execution option;
}

(* Top-level query specifications with a label per set-operation operand
   (["left"], ["right"], nested as ["left.right"], ...). *)
let rec labelled_specs prefix = function
  | Sql.Ast.Spec q -> [ (prefix, q) ]
  | Sql.Ast.Setop (_, _, a, b) ->
    let extend side = if prefix = "" then side else prefix ^ "." ^ side in
    labelled_specs (extend "left") a @ labelled_specs (extend "right") b

let analysis_section title analyze q =
  let nodes =
    List.concat_map
      (fun (label, spec) ->
        let t = Trace.make () in
        (try analyze ~trace:t spec
         with Fd.Derive.Unknown_table _ | Fd.Derive.Unknown_column _ ->
           Trace.emit t
             (Trace.node ~rule:(title ^ ".skipped")
                "analysis skipped: unresolved table or column reference"));
        let nodes = Trace.nodes t in
        if label = "" then nodes
        else
          [ Trace.node ~rule:(title ^ ".operand")
              ~inputs:[ ("operand", label) ]
              ~children:nodes "analysis of a set-operation operand" ])
      (labelled_specs "" q)
  in
  { title; nodes }

let cache_section cache =
  match cache with
  | None -> []
  | Some c ->
    let k = Analysis_cache.counters c in
    let m = Cache.Runtime.counters () in
    [ { title = "cache";
        nodes =
          [ Trace.node ~rule:"cache.counters"
              ~facts:
                [ ("verdict_hits", string_of_int k.Cache.Lru.c_hits);
                  ("verdict_misses", string_of_int k.Cache.Lru.c_misses);
                  ("verdict_evictions", string_of_int k.Cache.Lru.c_evictions);
                  ("verdict_entries", string_of_int k.Cache.Lru.c_length);
                  ("closure_memo_hits", string_of_int m.Cache.Lru.c_hits);
                  ("closure_memo_misses", string_of_int m.Cache.Lru.c_misses) ]
              "analysis-cache counters for this session" ] } ]

(* One node per request class; the serve front end renders the same
   section in its [stats] reply, so operators read one format in both
   places. *)
let latency_section summaries =
  {
    title = "latency";
    nodes =
      List.map
        (fun (cls, s) ->
          Trace.node ~rule:"latency.class"
            ~inputs:[ ("class", cls) ]
            ~facts:
              (List.map
                 (fun (k, v) ->
                   ( k,
                     if k = "count" then Printf.sprintf "%.0f" v
                     else Printf.sprintf "%.1f" v ))
                 (Engine.Histogram.summary_fields s))
            "request-latency histogram summary (microseconds)")
        summaries;
  }

let explain ?stats ?database ?(hosts = []) ?cache ?latency cat query =
  let algorithm1 =
    analysis_section "algorithm1"
      (fun ~trace spec ->
        ignore (Uniqueness.Algorithm1.distinct_is_redundant ?cache ~trace cat spec))
      query
  in
  let fd =
    analysis_section "fd-closure"
      (fun ~trace spec ->
        ignore (Uniqueness.Fd_analysis.distinct_is_redundant ?cache ~trace cat spec))
      query
  in
  let symbolic =
    analysis_section "symbolic"
      (fun ~trace spec ->
        ignore (Symbolic.Equiv.distinct_redundant ~trace cat spec))
      query
  in
  let rewrite_trace = Trace.make () in
  let rewritten, _ =
    Uniqueness.Rewrite.apply_all ?cache ~trace:rewrite_trace cat query
  in
  let planner_trace = Trace.make () in
  let distinct_trace = Trace.make () in
  let join_trace = Trace.make () in
  let order_trace = Trace.make () in
  let planned =
    match
      Optimizer.Physical.plan ?cache ~planner_trace ~distinct_trace ~join_trace
        ~order_trace ?database ?stats cat query
    with
    | p -> Some p
    | exception Uniqueness.Views.Unsupported_view why ->
      Trace.emit distinct_trace
        (Trace.node ~rule:"physical.skipped" ~inputs:[ ("reason", why) ]
           "no physical plan: the query cannot run");
      None
  in
  let execution =
    match (database, planned) with
    | Some db, Some { Optimizer.Physical.query = q; config; _ } ->
      let r = Engine.Exec.run_query ~config db ~hosts q in
      Some
        { rows = Engine.Relation.cardinality r;
          counters = Engine.Stats.fields config.Engine.Exec.stats }
    | None, _ | _, None -> None
  in
  {
    query;
    sections =
      [ algorithm1;
        fd;
        symbolic;
        { title = "rewrites"; nodes = Trace.nodes rewrite_trace };
        { title = "planner"; nodes = Trace.nodes planner_trace };
        { title = "distinct-strategy"; nodes = Trace.nodes distinct_trace };
        { title = "join-strategy"; nodes = Trace.nodes join_trace };
        { title = "order-strategy"; nodes = Trace.nodes order_trace } ]
      @ cache_section cache
      @ (match latency with
        | None -> []
        | Some summaries -> [ latency_section summaries ]);
    rewritten;
    chosen = Option.map (fun p -> p.Optimizer.Physical.strategy) planned;
    execution;
  }

(* ---- rendering ---- *)

let pp ppf r =
  Format.fprintf ppf "@[<v>query: %s@," (Sql.Pretty.query r.query);
  List.iter
    (fun s ->
      Format.fprintf ppf "@,%s@,%s@," s.title
        (String.make (String.length s.title) '-');
      if s.nodes = [] then Format.fprintf ppf "(no decisions)@,"
      else Format.fprintf ppf "%a@," Trace.pp s.nodes)
    r.sections;
  Format.fprintf ppf "@,rewritten: %s@," (Sql.Pretty.query r.rewritten);
  Option.iter
    (fun c -> Format.fprintf ppf "chosen: %s@," c.Optimizer.Planner.name)
    r.chosen;
  Option.iter
    (fun e ->
      Format.fprintf ppf "@,execution@,---------@,%d row(s)@," e.rows;
      List.iter (fun (k, v) -> Format.fprintf ppf "    %s = %d@," k v) e.counters)
    r.execution;
  Format.fprintf ppf "@]"

let to_json r =
  let open Trace.Json in
  Obj
    ([ ("query", String (Sql.Pretty.query r.query));
       ("sections",
        List
          (List.map
             (fun s ->
               Obj
                 [ ("title", String s.title);
                   ("nodes", Trace.to_json s.nodes) ])
             r.sections));
       ("rewritten", String (Sql.Pretty.query r.rewritten)) ]
     @ (match r.chosen with
       | None -> []
       | Some c ->
         [ ("chosen", String c.Optimizer.Planner.name);
           ("chosen_query", String (Sql.Pretty.query c.Optimizer.Planner.query)) ])
     @
     match r.execution with
     | None -> []
     | Some e ->
       [ ( "execution",
           Obj
             [ ("rows", Int e.rows);
               ( "counters",
                 Obj (List.map (fun (k, v) -> (k, Int v)) e.counters) ) ] ) ])
