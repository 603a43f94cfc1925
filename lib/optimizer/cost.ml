type table_stats = string -> int

type estimate = {
  cost : float;
  card : float;
}

let source ?database ?stats () =
  match (database, stats) with
  | Some db, _ -> ("database", Engine.Database.row_count db)
  | None, Some s -> ("callback", s)
  | None, None -> ("default 1000", fun _ -> 1000)

let log2 x = if x < 2.0 then 1.0 else log x /. log 2.0

(* Does [pred] contain an equality pinning the full candidate key of the
   table occurrence [corr]? Then its selectivity is 1/|T|. *)
let key_pinned cat (f : Sql.Ast.from_item) pred =
  let def = Catalog.find_exn cat f.Sql.Ast.table in
  let corr = Sql.Ast.from_name f in
  let clauses = Logic.Norm.usable_clauses pred in
  let eqs =
    List.filter_map
      (function [ lit ] -> Logic.Equalities.of_literal lit | _ -> None)
      clauses
  in
  let bound =
    List.fold_left
      (fun acc -> function
        | Logic.Equalities.Type1 (a, _) -> Schema.Attr.Set.add a acc
        | Logic.Equalities.Type2 (a, b) ->
          (* a column equated with another table's column is bound per
             outer/other row: count both for key-pinning purposes *)
          Schema.Attr.Set.add a (Schema.Attr.Set.add b acc))
      Schema.Attr.Set.empty eqs
  in
  List.exists
    (fun k ->
      List.for_all
        (fun a -> Schema.Attr.Set.mem a bound)
        (Catalog.key_attrs ~corr k))
    (Catalog.candidate_keys def)

(* Selectivity of the whole predicate, coarse. *)
let rec selectivity (p : Sql.Ast.pred) =
  match p with
  | Sql.Ast.Ptrue -> 1.0
  | Sql.Ast.Pfalse -> 0.0
  | Sql.Ast.Cmp (Sql.Ast.Eq, _, _) -> 0.1
  | Sql.Ast.Cmp (Sql.Ast.Ne, _, _) -> 0.9
  | Sql.Ast.Cmp ((Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt | Sql.Ast.Ge), _, _) -> 0.3
  | Sql.Ast.Between _ -> 0.3
  | Sql.Ast.In_list (_, vs) -> min 1.0 (0.1 *. float_of_int (List.length vs))
  | Sql.Ast.Is_null _ -> 0.1
  | Sql.Ast.Is_not_null _ -> 0.9
  | Sql.Ast.And (a, b) -> selectivity a *. selectivity b
  | Sql.Ast.Or (a, b) ->
    let sa = selectivity a and sb = selectivity b in
    sa +. sb -. (sa *. sb)
  | Sql.Ast.Not a -> 1.0 -. selectivity a
  | Sql.Ast.Exists _ -> 0.5

(* Single-leaf access estimate: scan the table, apply the pushed-down
   predicate. Key-pinning equalities cut the cardinality to one row. *)
let restrict cat stats (f : Sql.Ast.from_item) pred =
  let card = float_of_int (max 1 (stats f.Sql.Ast.table)) in
  let sel =
    if key_pinned cat f pred then 1.0 /. card
    else max (selectivity pred) 1e-9
  in
  { cost = card; card = card *. sel }

(* Price of one hash-join build row in probe rows. A build row is hashed,
   inserted into a [Relation.Keyed] table and laid out again by
   [Keyed.group], and the rows stay held for the whole join; a probe row
   is hashed and looked up, then streams on. Calibrated on the JOIN_SCALE
   bench's per-row measurement (bench/main.ml [calibrate_hash_join],
   "calibration" in BENCH_join_scale.json): over 10^6 star-schema FACT
   rows on a 2-vCPU host, five runs measured a [Keyed.group] build at
   119-193 ns per row and a probe into the DIM1 table at 53-69 ns, a
   build/probe ratio of 2.2-2.8 with median 2.3. End to end the gap is
   wider (replaying matches from a large build reads its rows out of
   cache), so the weight errs low. *)
let build_weight = 2.3

(* One streaming hash-join (or product) step, mirroring the engine: drain
   the inner (build) side into a hash table, stream the outer (probe)
   side, emit matches. With a unique-build certificate the build side's
   join columns cover a candidate key, so each probe row matches at most
   one build row: output cardinality is capped at the outer side. *)
let join_step ~outer ~inner ~equis ~unique_build =
  let card =
    if equis = 0 then outer.card *. inner.card
    else if unique_build then outer.card
    else outer.card *. inner.card *. (0.1 ** float_of_int equis)
  in
  let cost =
    if equis = 0 then
      (* block nested-loop product: every pair is touched *)
      outer.cost +. inner.cost +. (outer.card *. inner.card)
    else
      (* build (store inner rows) + probe (look up each outer row) + emit *)
      outer.cost +. inner.cost +. (build_weight *. inner.card) +. outer.card
      +. card
  in
  { cost; card = max card 0.0 }

(* A materializing ORDER BY sort on [card] rows: n log2 n comparisons —
   the cost a certified sort elision removes. An upper bound: on at most
   n/4 distinct keys the engine compares only the d distinct ones
   (d log2 d) and lays the rows out in a linear pass. Every rewrite
   candidate pays the same, so it decides no rewrite; [Join_plan]
   charges it to the join orders that cannot elide the sort. *)
let sort ~card = card *. log2 card

(* One streaming merge-join step over order-covered inputs: both sides
   stream through a single comparison sweep, so no hash table is built
   and neither side pays [join_step]'s per-row build or probe charge —
   each row is compared, and only one build key group is buffered.
   Cardinality is [join_step]'s (order says nothing about match counts). *)
let merge_step ~outer ~inner ~equis ~unique_build =
  let h = join_step ~outer ~inner ~equis ~unique_build in
  {
    cost = outer.cost +. inner.cost +. (0.5 *. (outer.card +. inner.card)) +. h.card;
    card = h.card;
  }

let rec query_spec cat stats (q : Sql.Ast.query_spec) =
  (* separate EXISTS conjuncts (correlated probes) from the flat predicate *)
  let conjs = Sql.Ast.conjuncts q.Sql.Ast.where in
  let exists_blocks =
    List.filter_map
      (function
        | Sql.Ast.Exists sub -> Some (sub, false)
        | Sql.Ast.Not (Sql.Ast.Exists sub) -> Some (sub, true)
        | _ -> None)
      conjs
  in
  let flat =
    List.filter
      (function
        | Sql.Ast.Exists _ | Sql.Ast.Not (Sql.Ast.Exists _) -> false
        | _ -> true)
      conjs
  in
  let flat_pred = Sql.Ast.conj flat in
  let cards =
    List.map (fun (f : Sql.Ast.from_item) -> float_of_int (stats f.Sql.Ast.table)) q.Sql.Ast.from
  in
  (* Join cost mirrors the engine: when every table past the first is
     connected by at least one cross-table equality (hash-joinable), the
     cost is linear in the inputs plus the output; otherwise the product is
     materialized. *)
  let resolve =
    try Some (Fd.Derive.resolver cat q.Sql.Ast.from) with _ -> None
  in
  let cross_table_equalities =
    match resolve with
    | None -> 0
    | Some resolve ->
      List.length
        (List.filter
           (function
             | Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Col a, Sql.Ast.Col b) ->
               (try
                  let a = resolve a and b = resolve b in
                  not (String.equal a.Schema.Attr.rel b.Schema.Attr.rel)
                with _ -> false)
             | _ -> false)
           flat)
  in
  let n_tables = List.length q.Sql.Ast.from in
  let hash_joinable = n_tables > 1 && cross_table_equalities >= n_tables - 1 in
  let product_size = List.fold_left ( *. ) 1.0 cards in
  (* per-table selectivity: key-pinned occurrences contribute 1/|T| *)
  let sel =
    List.fold_left2
      (fun acc f card ->
        if key_pinned cat f flat_pred then acc *. (1.0 /. max 1.0 card)
        else acc)
      (selectivity flat_pred) q.Sql.Ast.from cards
  in
  (* avoid double counting: the generic selectivity already includes the
     equality factors; keep the smaller of the two views *)
  let sel = max (min sel (selectivity flat_pred)) 1e-9 in
  let filtered = product_size *. sel in
  let access_cost =
    if hash_joinable then List.fold_left ( +. ) filtered cards
    else product_size
  in
  (* correlated EXISTS probes: per candidate row, scan half the inner
     product (early exit nested loop, the paper's baseline) *)
  let candidate_rows = if hash_joinable then filtered else product_size in
  let exists_cost =
    List.fold_left
      (fun acc ((sub : Sql.Ast.query_spec), _negated) ->
        let inner =
          List.fold_left
            (fun a (f : Sql.Ast.from_item) -> a *. float_of_int (stats f.Sql.Ast.table))
            1.0 sub.Sql.Ast.from
        in
        acc +. (candidate_rows *. max 1.0 (inner /. 2.0)))
      0.0 exists_blocks
  in
  let exists_sel = 0.5 ** float_of_int (List.length exists_blocks) in
  let out_card = filtered *. exists_sel in
  let distinct_cost =
    match q.Sql.Ast.distinct with
    | Sql.Ast.All -> 0.0
    | Sql.Ast.Distinct -> out_card *. log2 out_card
  in
  (* GROUP BY pays one hash probe per input row (the engine's hash
     aggregation); removing a grouping whose groups are all singletons
     saves exactly that *)
  let group_cost =
    match q.Sql.Ast.group_by with [] -> 0.0 | _ -> out_card
  in
  (* ORDER BY pays a materializing sort of the output unless
     [Optimizer.Order_plan] certifies an elision; constant across the
     rewrite candidates (rewrites preserve the ORDER BY clause) *)
  let order_cost =
    match q.Sql.Ast.order_by with [] -> 0.0 | _ -> sort ~card:out_card
  in
  {
    cost = access_cost +. exists_cost +. distinct_cost +. group_cost +. order_cost;
    card = max out_card 0.0;
  }

and query cat stats = function
  | Sql.Ast.Spec q -> query_spec cat stats q
  | Sql.Ast.Setop (_, _, a, b) ->
    let ea = query cat stats a and eb = query cat stats b in
    (* evaluate both operands, sort both, merge *)
    let sort n = n *. log2 n in
    {
      cost = ea.cost +. eb.cost +. sort ea.card +. sort eb.card +. ea.card +. eb.card;
      card = min ea.card eb.card;
    }
