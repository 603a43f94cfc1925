module Value = Sqlval.Value
module Truth = Sqlval.Truth

type distinct_impl =
  | Sort_distinct
  | Stream_hash
  | Stream_elided

type exists_impl = Naive_exists | Indexed_exists

(* ORDER BY implementation: the materializing sort is the ablation
   baseline; the elided pass-through is legal only under an
   [Optimizer.Order_plan] certificate (stream provenance + order
   dependencies prove the stream already sorted). The engine trusts the
   certificate blindly — the analyzers live above the engine. *)
type sort_impl = Materialize_sort | Elided_sort

type join_step = {
  js_leaf : int;
  js_unique_build : bool;
  js_merge : bool;
      (* certified: both inputs' verified orders cover the join keys, so
         the streaming merge join is legal *)
}

type join_order = {
  jo_first : int;
  jo_steps : join_step list;
}

type join_impl =
  | Nested_join
  | Hash_join
  | Planned_join of join_order

let withdraw ?(unique_builds = false) ?(merges = false) = function
  | Planned_join jo ->
    Planned_join
      { jo with
        jo_steps =
          List.map
            (fun st ->
              { st with
                js_unique_build = st.js_unique_build && not unique_builds;
                js_merge = st.js_merge && not merges })
            jo.jo_steps }
  | impl -> impl

type config = {
  distinct_impl : distinct_impl;
  join_impl : join_impl;
  sort_impl : sort_impl;
  exists_impl : exists_impl;
  logic : Sqlval.Logic_mode.t;
  stats : Stats.t;
}

let default_config () =
  {
    distinct_impl = Sort_distinct;
    join_impl = Hash_join;
    sort_impl = Materialize_sort;
    exists_impl = Naive_exists;
    logic = Sqlval.Logic_mode.default;
    stats = Stats.create ();
  }

exception Unbound_column of Schema.Attr.t
exception Unbound_host of string

(* One enclosing query block at compile time. A compiled predicate takes
   the innermost block's row as its argument; an outer block's row sits in
   [sc_slot], which the EXISTS nested in that block fills before running
   its body. Columns resolve innermost-first, so a correlated subquery
   sees its own tables before the outer query's. *)
type scope = {
  sc_schema : Schema.Relschema.t;
  sc_slot : Relation.row ref;
}

let scope schema = { sc_schema = schema; sc_slot = ref [||] }

(* The accessor for column [a] under [scopes] (innermost first). Resolution
   errors become accessors that raise when a row is evaluated: compiling a
   plan only to inspect it never raises on them. *)
let resolve scopes a : Relation.row -> Value.t =
  let rec go depth = function
    | [] -> fun _ -> raise (Unbound_column a)
    | sc :: rest ->
      (match Schema.Relschema.find_index sc.sc_schema a with
       | Some i when depth = 0 -> fun row -> row.(i)
       | Some i ->
         let slot = sc.sc_slot in
         fun _ -> !slot.(i)
       | None -> go (depth + 1) rest
       | exception Failure msg -> fun _ -> failwith msg)
  in
  go 0 scopes

(* The longest prefix of [in_order] fully retained by the projection,
   renamed to output attributes. Stops at the first order attribute the
   projection drops: a retained column further down cannot extend a
   lexicographic guarantee across a missing sort key. When the projection
   duplicates an input column, every output copy is emitted (the later,
   renamed copies carry the same values, so a stream sorted on the first
   copy is sorted on all of them) — without this, [Operator.unique] could
   never find a select list with a repeated column covered. *)
let project_order in_schema in_order items out_schema =
  let pos_of a =
    match Schema.Relschema.find_index in_schema a with
    | Some i -> Some i
    | None -> None
    | exception Failure _ -> None
  in
  let mapping =
    List.concat
      (List.mapi
         (fun j item ->
           match item with
           | Relalg.Plan.Pcol a ->
             (match pos_of a with Some i -> [ (i, j) ] | None -> [])
           | Relalg.Plan.Pconst _ | Relalg.Plan.Phost _ -> [])
         items)
  in
  let out_cols = Array.of_list (Schema.Relschema.columns out_schema) in
  let rec go = function
    | [] -> []
    | a :: rest ->
      (match pos_of a with
       | Some i ->
         (match
            List.filter_map
              (fun (i', j) -> if i' = i then Some j else None)
              mapping
          with
          | [] -> []
          | js ->
            List.map (fun j -> out_cols.(j).Schema.Relschema.attr) js
            @ go rest)
       | None -> [])
  in
  go in_order

(* A merge join compares the key vector lexicographically, so the equi
   list must be arranged to follow both streams' verified order prefixes
   pairwise — (probe key i, build key i) at order position i on each side.
   The arranged list, or None when no such arrangement exists. *)
let arrange_for_merge probe_order build_order equis =
  let rec go probe_order build_order remaining arranged =
    match remaining with
    | [] -> Some (List.rev arranged)
    | _ ->
      (match probe_order, build_order with
       | pa :: ra, pb :: rb ->
         (match
            List.find_opt
              (fun (x, y) -> Schema.Attr.equal x pa && Schema.Attr.equal y pb)
              remaining
          with
          | Some e ->
            go ra rb (List.filter (fun e' -> e' != e) remaining) (e :: arranged)
          | None -> None)
       | _ -> None)
  in
  go probe_order build_order equis []

(* Running state of one aggregate over one group, as small as its
   function allows (a group table can hold one per input row). Each
   operand is folded as it arrives, so SUM's float total and AVG's are
   exactly the left fold over the group's operands in input order, and
   MIN/MAX keep the first of equal values under [Value.compare_total]. *)
module Accumulator = struct
  type t =
    | Count of { mutable n : int }
    | Sum of {  (* SUM and AVG *)
        mutable n : int;
        mutable all_int : bool;
        mutable isum : int;
        mutable fsum : float;
      }
    | Best of { mutable n : int; mutable best : Value.t }  (* MIN and MAX *)

  let create = function
    | Sql.Ast.Count -> Count { n = 0 }
    | Sql.Ast.Sum | Sql.Ast.Avg ->
      Sum { n = 0; all_int = true; isum = 0; fsum = 0.0 }
    | Sql.Ast.Min | Sql.Ast.Max -> Best { n = 0; best = Value.Null }

  (* [operand] is [None] for COUNT( * ), which counts rows *)
  let add fn a (row : Relation.row) operand =
    let v = match operand with None -> Value.Int 1 | Some i -> row.(i) in
    match a, v with
    | _, Value.Null -> ()
    | Count c, _ -> c.n <- c.n + 1
    | Sum s, _ ->
      s.n <- s.n + 1;
      (match v with
       | Value.Int i ->
         s.isum <- s.isum + i;
         s.fsum <- s.fsum +. float_of_int i
       | Value.Float f ->
         s.all_int <- false;
         s.fsum <- s.fsum +. f
       | Value.Null | Value.String _ | Value.Bool _ -> s.all_int <- false)
    | Best b, _ ->
      b.n <- b.n + 1;
      if b.n = 1 then b.best <- v
      else
        let c = Value.compare_total v b.best in
        if (match fn with Sql.Ast.Min -> c < 0 | _ -> c > 0) then b.best <- v

  let result fn = function
    | Count c -> Value.Int c.n
    | Sum { n = 0; _ } | Best { n = 0; _ } -> Value.Null
    | Sum s ->
      (match fn with
       | Sql.Ast.Avg -> Value.Float (s.fsum /. float_of_int s.n)
       | _ -> if s.all_int then Value.Int s.isum else Value.Float s.fsum)
    | Best b -> b.best
end

(* One output column of an aggregate: a group-key position, or an
   aggregate over an operand position ([None] is COUNT( * )). *)
type agg_cell = Key of int | Agg of Sql.Ast.agg_fn * int option

let compile ?config db ~hosts plan : Operator.t =
  let cfg = match config with Some c -> c | None -> default_config () in
  let stats = cfg.stats in
  let cat = Database.catalog db in
  let lookup_host h =
    match List.assoc_opt (String.uppercase_ascii h) hosts with
    | Some v -> v
    | None -> raise (Unbound_host h)
  in
  let scan_table table corr =
    let def = Catalog.find_exn cat table in
    let schema = Schema.Relschema.rename_rel corr def.Catalog.tbl_schema in
    let rows = (Database.table db table).Relation.rows in
    let order =
      List.map
        (fun c -> Schema.Attr.make ~rel:corr ~name:c)
        (Database.order db table)
    in
    (schema, rows, order)
  in
  let tick_compare () = stats.Stats.comparisons <- stats.Stats.comparisons + 1 in
  let sort_counting rows =
    stats.Stats.sorts <- stats.Stats.sorts + 1;
    stats.Stats.sorted_rows <- stats.Stats.sorted_rows + List.length rows;
    let rows = Array.of_list rows in
    Relation.sort_rows ~tick:tick_compare rows;
    Array.to_list rows
  in
  let tick_scan () = stats.Stats.rows_scanned <- stats.Stats.rows_scanned + 1 in
  let rec resolver scopes =
    {
      Logic.Eval.column = resolve scopes;
      host = lookup_host;
      exists = (fun sub -> exists_spec scopes sub);
    }
  (* The row test of [pred] under [scopes], compiled once; each call is
     one predicate evaluation. *)
  and test scopes pred =
    let p = Logic.Eval.compile_pred ~logic:cfg.logic (resolver scopes) pred in
    fun row ->
      stats.Stats.predicate_evals <- stats.Stats.predicate_evals + 1;
      Truth.is_true (p row)
  (* EXISTS: correlated nested loop with early exit; in [Indexed_exists]
     mode, single-table subqueries with equi-correlation build a hash index
     on the correlated inner columns on the first evaluation and probe it
     per outer row (what an engine with an index on the correlation key
     would do). The body's tables are looked up and its predicate compiled
     here, once; the outer row goes into the enclosing block's slot. *)
  and exists_spec scopes (sub : Sql.Ast.query_spec) =
    let outer = List.hd scopes in
    let run =
      match
        List.map
          (fun (f : Sql.Ast.from_item) -> scan_table f.table (Sql.Ast.from_name f))
          sub.from
      with
      | exception Failure msg -> fun _ -> failwith msg
      | tables ->
        let inner = List.map (fun (schema, rows, _) -> (scope schema, rows)) tables in
        let body = test (List.rev_map fst inner @ scopes) sub.where in
        (match cfg.exists_impl, inner with
         | Indexed_exists, [ (sc, rows) ] ->
           (match exists_indexed scopes sc rows sub.where body with
            | Some probe -> probe
            | None -> exists_naive inner body)
         | (Naive_exists | Indexed_exists), _ -> exists_naive inner body)
    in
    fun row ->
      stats.Stats.subquery_evals <- stats.Stats.subquery_evals + 1;
      outer.sc_slot := row;
      run row

  and exists_naive inner body =
    (* tables in FROM order; the last one is the body's innermost block *)
    let rec loop row = function
      | [] -> body row
      | (sc, rows) :: rest ->
        List.exists
          (fun r ->
            tick_scan ();
            sc.sc_slot := r;
            loop r rest)
          rows
    in
    fun row -> loop row inner

  and exists_indexed scopes sc rows where body =
    let inner a =
      try Schema.Relschema.find_index sc.sc_schema a with Failure _ -> None
    in
    (* correlation conjuncts: inner column = outer-varying scalar *)
    let correlation col rhs =
      match col, rhs with
      | Sql.Ast.Col a, (Sql.Ast.Const _ | Sql.Ast.Host _) ->
        Option.map (fun i -> (i, rhs)) (inner a)
      | Sql.Ast.Col a, Sql.Ast.Col b when inner b = None ->
        Option.map (fun i -> (i, rhs)) (inner a)
      | _ -> None
    in
    let key_conjs =
      List.filter_map
        (function
          | Sql.Ast.Cmp (Sql.Ast.Eq, x, y) ->
            (match correlation x y with None -> correlation y x | k -> k)
          | _ -> None)
        (Sql.Ast.conjuncts where)
    in
    if key_conjs = [] then None
    else begin
      let key_idx = Array.of_list (List.map fst key_conjs) in
      let index =
        lazy
          (Relation.Keyed.group key_idx (fun add ->
               List.iter
                 (fun row ->
                   tick_scan ();
                   if not (Relation.has_null_at key_idx row) then add row)
                 rows))
      in
      let probe_key =
        Array.of_list
          (List.map
             (fun (_, rhs) -> Logic.Eval.compile_scalar (resolver scopes) rhs)
             key_conjs)
      in
      let positions = Array.init (Array.length probe_key) Fun.id in
      Some
        (fun outer_row ->
          let index = Lazy.force index in
          stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
          let probe = Array.map (fun f -> f outer_row) probe_key in
          (not (Array.exists Value.is_null probe))
          &&
          let id = Relation.Keyed.find index.Relation.Keyed.ids positions probe in
          let rec any i =
            i < index.Relation.Keyed.starts.(id + 1)
            && (body index.Relation.Keyed.rows.(i) || any (i + 1))
          in
          id >= 0 && any index.Relation.Keyed.starts.(id))
    end
  in
  let count_output (op : Operator.t) =
    {
      op with
      Operator.next =
        (fun () ->
          match op.Operator.next () with
          | Some _ as r ->
            stats.Stats.rows_output <- stats.Stats.rows_output + 1;
            r
          | None -> None);
    }
  in
  let rec compile_node plan : Operator.t =
    match plan with
    | Relalg.Plan.Scan { table; corr } ->
      let schema, rows, order = scan_table table corr in
      Operator.of_rows ~order ~tick:tick_scan schema rows
    | Relalg.Plan.Select (pred, (Relalg.Plan.Product _ as prod)) ->
      (match cfg.join_impl with
       | Nested_join ->
         (* ablation baseline: filter the block-nested product stream *)
         Stats.record_join stats ~strategy:"nested";
         let op = compile_node prod in
         count_output
           (Operator.filter (test [ scope op.Operator.schema ] pred) op)
       | Hash_join | Planned_join _ ->
         (* the streaming join tree: the "alternate join methods" that
            motivate unnesting in the paper's section 5.2 *)
         compile_join pred (Relalg.Plan.flatten_product prod))
    | Relalg.Plan.Select (pred, sub) ->
      let op = compile_node sub in
      count_output (Operator.filter (test [ scope op.Operator.schema ] pred) op)
    | Relalg.Plan.Project (d, items, sub) ->
      let op = compile_node sub in
      let in_schema = op.Operator.schema in
      let positions =
        List.filter_map
          (function
            | Relalg.Plan.Pcol a -> Some (Schema.Relschema.index_of in_schema a)
            | Relalg.Plan.Pconst _ | Relalg.Plan.Phost _ -> None)
          items
      in
      let out_schema = Relalg.Plan.project_schema in_schema items in
      let out_order = project_order in_schema op.Operator.order items out_schema in
      let project =
        (* all columns: copy through positions; else one cell per item *)
        if List.compare_lengths positions items = 0 then begin
          let positions = Array.of_list positions in
          fun (row : Relation.row) -> Array.map (fun i -> row.(i)) positions
        end
        else begin
          let cells =
            Array.of_list
              (List.map
                 (function
                   | Relalg.Plan.Pcol a ->
                     let i = Schema.Relschema.index_of in_schema a in
                     fun (row : Relation.row) -> row.(i)
                   | Relalg.Plan.Pconst v -> fun _ -> v
                   | Relalg.Plan.Phost h ->
                     (* resolved lazily so that compiling a pipeline (a pure
                        inspection step) never raises on an unbound host *)
                     let v = lazy (lookup_host h) in
                     fun _ -> Lazy.force v)
                 items)
          in
          fun row -> Array.map (fun f -> f row) cells
        end
      in
      let mapped = Operator.map ~order:out_order out_schema project op in
      let deduped =
        match d with Sql.Ast.All -> mapped | Sql.Ast.Distinct -> distinct mapped
      in
      count_output deduped
    | Relalg.Plan.Product (a, b) ->
      Operator.product
        ~tick:(fun () -> stats.Stats.product_pairs <- stats.Stats.product_pairs + 1)
        (compile_node a) (compile_node b)
    | Relalg.Plan.Intersect (d, a, b) -> setop `Intersect d a b
    | Relalg.Plan.Except (d, a, b) -> setop `Except d a b
    | Relalg.Plan.Aggregate { group_by; output; input } ->
      aggregate group_by output input
    | Relalg.Plan.Sort (keys, sub) ->
      let op = compile_node sub in
      (* no [count_output]: the child already counted these rows, the sort
         only re-sequences them *)
      (match cfg.sort_impl with
       | Materialize_sort -> Operator.sort ~stats keys op
       | Elided_sort ->
         (* pass-through under an Order_plan certificate: the stream's
            verified order already implies the requested one. Rows were
            already counted by the child. *)
         stats.Stats.sort_elisions <- stats.Stats.sort_elisions + 1;
         op)

  (* Duplicate elimination over the projected stream. The materializing
     sort predates the operator pipeline and is kept as the ablation
     baseline; [Operator.unique] reads the stream's own order prefix, and
     the elided pass-through stands in under an Algorithm 1 certificate. *)
  and distinct (op : Operator.t) : Operator.t =
    let schema = op.Operator.schema in
    match cfg.distinct_impl with
    | Sort_distinct ->
      (* output is fully sorted, so downstream order is all columns *)
      Operator.of_lazy ~order:(Schema.Relschema.attrs schema) schema (fun () ->
          let rows = Operator.to_rows op in
          let n = List.length rows in
          Stats.record_dedup stats ~strategy:"sort-unique" ~state:n;
          stats.Stats.dedup_rows_in <- stats.Stats.dedup_rows_in + n;
          let out = Relation.dedup_sorted ~tick:tick_compare (sort_counting rows) in
          stats.Stats.dedup_rows_out <-
            stats.Stats.dedup_rows_out + List.length out;
          out)
    | Stream_hash -> Operator.unique ~stats op
    | Stream_elided -> Operator.elided_unique ~stats op

  (* Hash aggregation: one pass over the input, each row's group found in
     a [Relation.Keyed] table (null-comparison equality, so NULL keys form
     one group and [Int 1] / [Float 1.0] share one; with no GROUP BY every
     row lands in group 0) and folded into that group's running
     accumulators. Groups are emitted in first-seen order with no order
     provenance; each group folds its rows in input order, so float
     SUM/AVG are exactly the left fold over the group's operands. *)
  and aggregate group_by output input =
    let op = compile_node input in
    let in_schema = op.Operator.schema in
    let out_schema = Relalg.Plan.aggregate_schema in_schema output in
    let index_of = Schema.Relschema.index_of in_schema in
    let key_idx = Array.of_list (List.map index_of group_by) in
    let cells =
      List.map
        (function
          | Relalg.Plan.Out_key a -> Key (index_of a)
          | Relalg.Plan.Out_agg (fn, operand) ->
            Agg (fn, Option.map index_of operand))
        output
    in
    let aggs =
      Array.of_list
        (List.filter_map
           (function Agg (fn, operand) -> Some (fn, operand) | Key _ -> None)
           cells)
    in
    let cells = Array.of_list cells in
    let nagg = Array.length aggs in
    Operator.of_lazy out_schema (fun () ->
        (* accumulators of group [id] at [id * nagg ..], in [Agg] cell
           order; [filler] only pads spare capacity *)
        let accs = ref [||] and filler = Accumulator.Count { n = 0 } in
        let init base =
          Array.iteri
            (fun j (fn, _) -> !accs.(base + j) <- Accumulator.create fn)
            aggs
        in
        let fold base row =
          Array.iteri
            (fun j (fn, operand) ->
              Accumulator.add fn !accs.(base + j) row operand)
            aggs
        in
        let output_row first base =
          let j = ref (-1) in
          Array.map
            (function
              | Key i ->
                (match first with Some row -> row.(i) | None -> Value.Null)
              | Agg (fn, _) ->
                incr j;
                Accumulator.result fn !accs.(base + !j))
            cells
        in
        let rec drain f =
          match op.Operator.next () with
          | None -> ()
          | Some row ->
            f row;
            drain f
        in
        let groups = Relation.Keyed.create key_idx in
        drain (fun row ->
            if Array.length key_idx > 0 then
              stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
            let count = Relation.Keyed.count groups in
            let id = Relation.Keyed.find_or_add groups row in
            if id = count then begin
              let len = Array.length !accs in
              if (id + 1) * nagg > len then
                accs := Array.append !accs (Array.make (max nagg len) filler);
              init (id * nagg)
            end;
            fold (id * nagg) row);
        let rows =
          if Relation.Keyed.count groups = 0 && Array.length key_idx = 0 then begin
            (* one global group, even over empty input *)
            accs := Array.make nagg filler;
            init 0;
            [ output_row None 0 ]
          end
          else
            List.init (Relation.Keyed.count groups) (fun id ->
                output_row (Some (Relation.Keyed.first groups id)) (id * nagg))
        in
        op.Operator.close ();
        stats.Stats.rows_output <- stats.Stats.rows_output + List.length rows;
        rows)

  and compile_join pred leaves : Operator.t =
    (* Streaming join tree over the flattened product leaves: single-leaf
       conjuncts are pushed below the joins, cross-leaf equalities drive
       streaming hash joins — in FROM order under [Hash_join], or in the
       planner-chosen order with unique-build certificates under
       [Planned_join] (the engine trusts [Optimizer.Join_plan]'s
       certificate blindly; the analyzers live above the engine) — and
       whatever remains, EXISTS correlations included, runs as a residual
       filter over the joined stream. Output column order under a
       reordered plan differs from the FROM-order product, which is safe:
       parents resolve columns by qualified name, never by position. *)
    let safe_mem schema attr =
      match Schema.Relschema.find_index schema attr with
      | Some _ -> true
      | None -> false
      | exception Failure _ -> false
    in
    let evaluable schema c =
      (not (Sql.Ast.contains_exists c))
      && List.for_all (safe_mem schema) (Sql.Ast.cols_of_pred c)
    in
    let remaining = ref (Sql.Ast.conjuncts pred) in
    let take f =
      let yes, no = List.partition f !remaining in
      remaining := no;
      yes
    in
    let filter_op op preds =
      match preds with
      | [] -> op
      | _ ->
        Operator.filter
          (test [ scope op.Operator.schema ] (Sql.Ast.conj preds))
          op
    in
    (* push single-leaf conjuncts below the joins; FROM order keeps the
       attribution deterministic regardless of the join order chosen *)
    let ops =
      Array.of_list
        (List.map
           (fun leaf ->
             let op = compile_node leaf in
             filter_op op (take (evaluable op.Operator.schema)))
           leaves)
    in
    let n = Array.length ops in
    let from_order = List.init n Fun.id in
    let visit_order, unique_of, merge_of =
      match cfg.join_impl with
      | Nested_join | Hash_join -> (from_order, (fun _ -> false), fun _ -> false)
      | Planned_join { jo_first; jo_steps } ->
        let idxs = jo_first :: List.map (fun s -> s.js_leaf) jo_steps in
        (* a plan for a different leaf count/set cannot be trusted *)
        if List.sort compare idxs <> from_order then
          (from_order, (fun _ -> false), fun _ -> false)
        else
          ( idxs,
            (fun i ->
              List.exists
                (fun s -> s.js_leaf = i && s.js_unique_build)
                jo_steps),
            fun i ->
              List.exists (fun s -> s.js_leaf = i && s.js_merge) jo_steps )
    in
    let product_tick () =
      stats.Stats.product_pairs <- stats.Stats.product_pairs + 1
    in
    let join acc leaf_idx =
      let build = ops.(leaf_idx) in
      let as_equi c =
        match c with
        | Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Col x, Sql.Ast.Col y) ->
          if
            safe_mem acc.Operator.schema x
            && safe_mem build.Operator.schema y
          then Some (x, y)
          else if
            safe_mem acc.Operator.schema y
            && safe_mem build.Operator.schema x
          then Some (y, x)
          else None
        | _ -> None
      in
      let equis =
        List.filter_map as_equi (take (fun c -> as_equi c <> None))
      in
      let joined =
        match equis with
        | [] ->
          (* no usable equi-join condition: block nested-loop product *)
          Stats.record_join stats ~strategy:"product";
          Operator.product ~tick:product_tick acc build
        | _ ->
          let keys_of equis =
            ( List.map
                (fun (x, _) -> Schema.Relschema.index_of acc.Operator.schema x)
                equis,
              List.map
                (fun (_, y) -> Schema.Relschema.index_of build.Operator.schema y)
                equis )
          in
          (* with no arrangement the planner's merge certificate is
             dropped: a malformed plan never changes answers *)
          (match
             if merge_of leaf_idx then
               arrange_for_merge acc.Operator.order build.Operator.order equis
             else None
           with
           | Some arranged ->
             let probe_key, build_key = keys_of arranged in
             Stats.record_join stats ~strategy:"merge-join";
             Operator.merge_join ~tick:product_tick ~stats ~probe_key
               ~build_key acc build
           | None ->
             let probe_key, build_key = keys_of equis in
             let unique_build = unique_of leaf_idx in
             Stats.record_join stats
               ~strategy:
                 (if unique_build then "unique-hash-join" else "hash-join");
             Operator.hash_join ~tick:product_tick ~stats ~unique_build
               ~probe_key ~build_key acc build)
      in
      filter_op joined (take (evaluable joined.Operator.schema))
    in
    let result =
      match visit_order with
      | [] -> failwith "Exec.compile_join: empty product"
      | first :: rest -> List.fold_left join ops.(first) rest
    in
    count_output (filter_op result !remaining)

  and setop kind d a b =
    match d with
    | Sql.Ast.Distinct ->
      (* DISTINCT set operations stream: dedup the left input
         ([Operator.unique]), then keep (INTERSECT) or drop (EXCEPT) the rows present in
         the right via a hash semi-join keyed on the whole row. Set
         operations equate NULLs, so the semi-join keys use the
         null-comparison total order ([~null_equal]). Order provenance is
         the left input's — the merge-based ALL path below still claims the
         full sort it performs. *)
      let left = compile_node a in
      let right = compile_node b in
      let schema = left.Operator.schema in
      let all_cols s = List.init (List.length (Schema.Relschema.columns s)) Fun.id in
      let checked = ref false in
      let check_compat () =
        if not !checked then begin
          checked := true;
          if
            not
              (Schema.Relschema.union_compatible schema right.Operator.schema)
          then failwith "Exec: set operation on non-union-compatible inputs"
        end
      in
      Stats.record_join stats
        ~strategy:
          (match kind with
           | `Intersect -> "semi-join"
           | `Except -> "anti-semi-join");
      let semi =
        Operator.semi_join
          ~anti:(kind = `Except)
          ~null_equal:true ~stats ~probe_key:(all_cols schema)
          ~build_key:(all_cols right.Operator.schema)
          (Operator.unique ~stats left)
          right
      in
      count_output
        { semi with
          Operator.next =
            (fun () ->
              check_compat ();
              semi.Operator.next ()) }
    | Sql.Ast.All ->
      let left = compile_node a and right = compile_node b in
      let schema = left.Operator.schema in
      (* merge output is fully sorted, so downstream order is all columns *)
      Operator.of_lazy ~order:(Schema.Relschema.attrs schema) schema (fun () ->
          let ra = Operator.to_rows left and rb = Operator.to_rows right in
          if
            not (Schema.Relschema.union_compatible schema right.Operator.schema)
          then failwith "Exec: set operation on non-union-compatible inputs";
          let sa = sort_counting ra and sb = sort_counting rb in
          (* group both sorted inputs by row value and merge multiplicities:
             INTERSECT ALL -> min(j, k); EXCEPT ALL -> max(j - k, 0) *)
          let rec groups = function
            | [] -> []
            | r :: rest ->
              let rec take n = function
                | r' :: rest' when (tick_compare (); Relation.compare_rows r r' = 0) ->
                  take (n + 1) rest'
                | remaining -> (n, remaining)
              in
              let n, remaining = take 1 rest in
              (r, n) :: groups remaining
          in
          let rec merge ga gb =
            match ga, gb with
            | [], _ -> []
            | rest, [] -> if kind = `Intersect then [] else rest
            | (ra', ja) :: ta, (rb', jb) :: tb ->
              tick_compare ();
              let c = Relation.compare_rows ra' rb' in
              if c < 0 then
                if kind = `Intersect then merge ta gb else (ra', ja) :: merge ta gb
              else if c > 0 then merge ga tb
              else
                let m =
                  match kind with
                  | `Intersect -> min ja jb
                  | `Except -> max (ja - jb) 0
                in
                let rest = merge ta tb in
                if m > 0 then (ra', m) :: rest else rest
          in
          let rows =
            List.concat_map
              (fun (r, n) -> List.init n (fun _ -> r))
              (merge (groups sa) (groups sb))
          in
          stats.Stats.rows_output <- stats.Stats.rows_output + List.length rows;
          rows)
  in
  compile_node plan

let run ?config db ~hosts plan = Operator.to_relation (compile ?config db ~hosts plan)

let run_query ?config db ~hosts q =
  let plan = Relalg.Plan.of_query (Database.catalog db) q in
  run ?config db ~hosts plan

let run_sql ?config db ~hosts s = run_query ?config db ~hosts (Sql.Parser.parse_query s)

let distinct_stream ?config db q =
  match
    (* the DISTINCT happens below any ORDER BY; probe the stream feeding it *)
    match Relalg.Plan.of_query (Database.catalog db) q with
    | Relalg.Plan.Sort (_, p) -> p
    | p -> p
  with
  | Relalg.Plan.Project (Sql.Ast.Distinct, items, sub) ->
    (* compile (never execute) the stream feeding the DISTINCT: project
       with ALL so the probe sees the order arriving at the dedup point *)
    let op =
      compile ?config db ~hosts:[] (Relalg.Plan.Project (Sql.Ast.All, items, sub))
    in
    Some (op.Operator.schema, op.Operator.order)
  | _ -> None
  | exception Failure _ -> None
  | exception Not_found -> None

(* Probe for the order planner: compile (never execute) the stream feeding
   a query's ORDER BY and report the requested sort keys plus the stream's
   verified order provenance at that point. [config] must match the
   configuration the query will actually run under — join strategy and
   DISTINCT implementation both change the stream's arrival order, and a
   certificate issued against one configuration is not transferable to
   another. *)
let order_stream ?config db q =
  match Relalg.Plan.of_query (Database.catalog db) q with
  | Relalg.Plan.Sort (keys, sub) ->
    let op = compile ?config db ~hosts:[] sub in
    Some (keys, op.Operator.schema, op.Operator.order)
  | _ -> None
  | exception Failure _ -> None
  | exception Not_found -> None
