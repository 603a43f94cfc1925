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
  merge_joins : int;
}

let applicable (q : Sql.Ast.query) =
  match q with
  | Sql.Ast.Spec spec -> spec.Sql.Ast.order_by <> []
  | Sql.Ast.Setop _ -> false

(* ----- merge-join certification ------------------------------------- *)

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
             (fun c -> Attr.make ~rel:corr ~name:c)
             (Engine.Database.order db f.Sql.Ast.table)
         | Some _ | None -> [])
       spec.Sql.Ast.from)

(* Upgrade a join plan with merge-join certificates: a step whose
   cross-leaf equality edges can follow the probe stream's and the build
   leaf's verified order prefixes runs as a streaming
   [Operator.merge_join]. The probe stream's order is the first leaf's
   physical order throughout — filters preserve it and both hash and
   merge joins inherit the probe side's order. Raises on unresolvable
   references; [choose] catches and leaves the plan untouched. *)
let certify_merge db cat (spec : Sql.Ast.query_spec)
    (impl : Engine.Exec.join_impl) =
  let leaves = Array.of_list spec.Sql.Ast.from in
  let n = Array.length leaves in
  let corrs = Array.map Sql.Ast.from_name leaves in
  let orders = leaf_orders db cat spec in
  let resolve = Fd.Derive.resolver cat spec.Sql.Ast.from in
  let edges =
    List.filter_map
      (function
        | Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Col x, Sql.Ast.Col y) ->
          let rx = resolve x and ry = resolve y in
          if String.equal rx.Attr.rel ry.Attr.rel then None else Some (rx, ry)
        | _ -> None)
      (Sql.Ast.conjuncts spec.Sql.Ast.where)
  in
  let from_order = List.init n Fun.id in
  let base_steps =
    match impl with
    | Engine.Exec.Planned_join { jo_first; jo_steps }
      when List.sort compare (jo_first :: List.map (fun s -> s.Engine.Exec.js_leaf) jo_steps)
           = from_order ->
      (jo_first, jo_steps)
    | Engine.Exec.Planned_join _ | Engine.Exec.Hash_join ->
      ( 0,
        List.map
          (fun i ->
            { Engine.Exec.js_leaf = i; js_unique_build = false; js_merge = false })
          (List.tl from_order) )
    | Engine.Exec.Nested_join -> (0, [])
  in
  match (impl, base_steps) with
  | Engine.Exec.Nested_join, _ | _, (_, []) -> (impl, 0)
  | _, (first, steps) ->
    let probe_order = orders.(first) in
    let _, certified =
      List.fold_left
        (fun (in_set, acc) (st : Engine.Exec.join_step) ->
          let j = st.Engine.Exec.js_leaf in
          let jc = corrs.(j) in
          let pairs =
            List.filter_map
              (fun (rx, ry) ->
                if String.equal ry.Attr.rel jc && List.mem rx.Attr.rel in_set
                then Some (rx, ry)
                else if
                  String.equal rx.Attr.rel jc && List.mem ry.Attr.rel in_set
                then Some (ry, rx)
                else None)
              edges
          in
          let merge =
            pairs <> []
            && Engine.Exec.arrange_for_merge probe_order orders.(j) pairs
               <> None
          in
          (jc :: in_set, { st with Engine.Exec.js_merge = merge } :: acc))
        ([ corrs.(first) ], [])
        steps
    in
    let steps = List.rev certified in
    let merges =
      List.length (List.filter (fun s -> s.Engine.Exec.js_merge) steps)
    in
    if merges = 0 then (impl, 0)
    else (Engine.Exec.Planned_join { jo_first = first; jo_steps = steps }, merges)

(* ----- ORDER BY elision --------------------------------------------- *)

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
  let table_stats =
    match (database, stats) with
    | Some db, _ -> fun t -> Engine.Database.row_count db t
    | None, Some s -> s
    | None, None -> fun _ -> 1000
  in
  let base_join =
    match config with
    | Some c -> c.Engine.Exec.join_impl
    | None -> Engine.Exec.Hash_join
  in
  let join_impl, merge_joins =
    match (q, database) with
    | Sql.Ast.Spec spec, Some db when List.length spec.Sql.Ast.from >= 2 ->
      (try certify_merge db cat spec base_join with _ -> (base_join, 0))
    | _ -> (base_join, 0)
  in
  (* The probe must run under the configuration the query will actually
     run under — join strategy and DISTINCT implementation change the
     stream's arrival order — with fresh stats (compiling narrates
     strategy choices into the config's stats). *)
  let probe_config =
    let c =
      match config with Some c -> c | None -> Engine.Exec.default_config ()
    in
    { c with Engine.Exec.join_impl; stats = Engine.Stats.create () }
  in
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
        merge_joins;
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
        merge_joins;
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
        merge_joins;
      }
  in
  Trace.emitf trace (fun () ->
      let attrs l =
        match l with
        | [] -> "-"
        | _ -> String.concat ", " (List.map (fun a -> Attr.to_string a) l)
      in
      Trace.node ~rule:"planner.order"
        ?citation:
          (if c.od_covers || c.merge_joins > 0 then
             Some "Szlichta et al. 2012"
           else None)
        ~verdict:Trace.Chosen
        ~inputs:[ ("query", Sql.Pretty.query q) ]
        ~facts:
          [ ("strategy", c.name);
            ("od-covers", if c.od_covers then "yes" else "no");
            ("sort-keys", attrs c.sort_keys);
            ("stream-order", attrs c.stream_order);
            ("merge-joins", string_of_int c.merge_joins);
            ("est-sort-cost", Printf.sprintf "%.0f" c.est_sort_cost);
            ( "order-known",
              if database = None then "no database given" else "consulted" ) ]
        c.reason);
  c
