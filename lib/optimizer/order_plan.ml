module Attr = Schema.Attr

type choice = {
  impl : Engine.Exec.sort_impl;
  name : string;
  reason : string;
  od_covers : bool;
  sort_keys : Attr.t list;
  stream_order : Attr.t list;
  est_sort_cost : float;
  join_impl : Engine.Exec.join_impl;
}

let applicable (q : Sql.Ast.query) =
  match q with
  | Sql.Ast.Spec spec -> spec.Sql.Ast.order_by <> []
  | Sql.Ast.Setop _ -> false

(* Translate output-schema attribute lists back to product attributes
   through the plan's top projection. A [Pconst]/[Phost] output column is
   constant for the whole execution — trivially sorted, skippable from
   either list. Returns [None] when the plan shape is not a projection
   over the product (aggregates), where the stream carries no verified
   order anyway. *)
let translate cat (q : Sql.Ast.query) lists =
  match Relalg.Plan.of_query cat q with
  | Relalg.Plan.Sort (_, (Relalg.Plan.Project (_, items, _) as sub)) ->
    let out_schema = Relalg.Plan.schema cat sub in
    let item_of a =
      match Schema.Relschema.find_index out_schema a with
      | Some i -> List.nth_opt items i
      | None -> None
      | exception Failure _ -> None
    in
    let tr l =
      List.fold_right
        (fun a acc ->
          match acc with
          | None -> None
          | Some tl ->
            (match item_of a with
             | Some (Relalg.Plan.Pcol p) -> Some (p :: tl)
             | Some (Relalg.Plan.Pconst _ | Relalg.Plan.Phost _) -> Some tl
             | None -> None))
        l (Some [])
    in
    let translated = List.map tr lists in
    if List.for_all Option.is_some translated then
      Some (List.map Option.get translated)
    else None
  | _ -> None
  | exception _ -> None

let choose ?(trace = Trace.disabled) ?database ?config ?stats cat
    (q : Sql.Ast.query) =
  let _, table_stats = Cost.source ?database ?stats () in
  (* The probe must run under the configuration the query will actually
     run under — join strategy and DISTINCT implementation change the
     stream's arrival order — with fresh stats (compiling narrates
     strategy choices into the config's stats). *)
  let probe_config =
    let c =
      match config with Some c -> c | None -> Engine.Exec.default_config ()
    in
    { c with Engine.Exec.stats = Engine.Stats.create () }
  in
  let join_impl = probe_config.Engine.Exec.join_impl in
  let stream_probe =
    match (database, applicable q) with
    | Some db, true ->
      (try Engine.Exec.order_stream ~config:probe_config db q with _ -> None)
    | _ -> None
  in
  let od_covers, stream_order, sort_keys =
    match (q, stream_probe) with
    | Sql.Ast.Spec spec, Some (keys, _, stream) ->
      let covers =
        match translate cat q [ stream; keys ] with
        | Some [ tr_stream; tr_keys ] ->
          (try
             let src = Od.Derive.of_query_spec ~trace cat spec in
             Od.Odset.covers ~fds:src.Od.Derive.src_fds
               ~equiv:src.Od.Derive.src_canon src.Od.Derive.src_ods
               ~stream:tr_stream tr_keys
           with _ -> false)
        | Some _ | None ->
          (* no projection to translate through: decide at the output
             level with no dependency knowledge (syntactic prefix) *)
          Od.Odset.covers Od.Odset.empty ~stream keys
      in
      (covers, stream, keys)
    | _ -> (false, [], [])
  in
  let est_sort_cost =
    match q with
    | Sql.Ast.Spec spec when applicable q ->
      (try Cost.sort ~card:(Cost.query_spec cat table_stats spec).Cost.card
       with _ -> 0.0)
    | _ -> 0.0
  in
  let c =
    if not (applicable q) then
      {
        impl = Engine.Exec.Materialize_sort;
        name = "none";
        reason = "no ORDER BY to plan (strategy unused)";
        od_covers = false;
        sort_keys = [];
        stream_order = [];
        est_sort_cost;
        join_impl;
      }
    else if od_covers then
      {
        impl = Engine.Exec.Elided_sort;
        name = "elided-sort";
        reason =
          "order dependencies prove the stream's verified order implies the \
           requested one: the sort is a pass-through";
        od_covers;
        sort_keys;
        stream_order;
        est_sort_cost;
        join_impl;
      }
    else
      {
        impl = Engine.Exec.Materialize_sort;
        name = "materialize-sort";
        reason =
          (if database = None then
             "no database instance: stream provenance unknown, the \
              materializing sort is the safe strategy"
           else
             "no covering order derivation: the materializing sort is the \
              safe strategy");
        od_covers;
        sort_keys;
        stream_order;
        est_sort_cost;
        join_impl;
      }
  in
  Trace.emitf trace (fun () ->
      let attrs l =
        match l with
        | [] -> "-"
        | _ -> String.concat ", " (List.map (fun a -> Attr.to_string a) l)
      in
      Trace.node ~rule:"planner.order"
        ?citation:(if c.od_covers then Some "Szlichta et al. 2012" else None)
        ~verdict:Trace.Chosen
        ~inputs:[ ("query", Sql.Pretty.query q) ]
        ~facts:
          [ ("strategy", c.name);
            ("od-covers", if c.od_covers then "yes" else "no");
            ("sort-keys", attrs c.sort_keys);
            ("stream-order", attrs c.stream_order);
            ("est-sort-cost", Printf.sprintf "%.0f" c.est_sort_cost);
            ( "order-known",
              if database = None then "no database given" else "consulted" ) ]
        c.reason);
  c
