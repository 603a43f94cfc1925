(* Optimizer tests: the uniqueness rewrites must expand the strategy space
   and the cost model must prefer the cheaper alternatives on the paper's
   examples. *)

let catalog = Workload.Paper_schema.catalog ()

let stats : Optimizer.Cost.table_stats = function
  | "SUPPLIER" -> 1_000
  | "PARTS" -> 10_000
  | "AGENTS" -> 2_000
  | t -> failwith ("no stats for " ^ t)

let parse = Sql.Parser.parse_query

let example1 =
  "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
   S.SNO = P.SNO AND P.COLOR = 'RED'"

let test_enumerate_expands_space () =
  let strategies = Optimizer.Planner.enumerate catalog stats (parse example1) in
  Alcotest.(check bool) "more than the original" true (List.length strategies > 1);
  Alcotest.(check bool) "original present" true
    (List.exists (fun s -> s.Optimizer.Planner.name = "as-written") strategies)

let test_ablation_baseline () =
  let strategies =
    Optimizer.Planner.enumerate ~with_rewrites:false catalog stats (parse example1)
  in
  Alcotest.(check int) "only the original" 1 (List.length strategies)

let test_distinct_removal_preferred () =
  let best = Optimizer.Planner.choose catalog stats (parse example1) in
  Alcotest.(check bool) "a distinct-removed strategy wins" true
    (match best.Optimizer.Planner.query with
     | Sql.Ast.Spec s -> s.Sql.Ast.distinct = Sql.Ast.All
     | Sql.Ast.Setop _ -> false);
  let baseline =
    Optimizer.Planner.choose ~with_rewrites:false catalog stats (parse example1)
  in
  Alcotest.(check bool) "cheaper than as-written" true
    (best.Optimizer.Planner.estimate.Optimizer.Cost.cost
     < baseline.Optimizer.Planner.estimate.Optimizer.Cost.cost)

(* paper section 8: grouping on a key makes every group a singleton *)
let x1_query =
  "SELECT P.SNO, P.PNO, COUNT(*), MAX(P.OEM_PNO) FROM PARTS P GROUP BY \
   P.SNO, P.PNO"

let test_group_by_removal_preferred () =
  let best = Optimizer.Planner.choose catalog stats (parse x1_query) in
  Alcotest.(check string) "group-by-removed wins" "group-by-removed"
    best.Optimizer.Planner.name;
  let baseline =
    Optimizer.Planner.choose ~with_rewrites:false catalog stats (parse x1_query)
  in
  Alcotest.(check bool) "cheaper than as-written" true
    (best.Optimizer.Planner.estimate.Optimizer.Cost.cost
     < baseline.Optimizer.Planner.estimate.Optimizer.Cost.cost)

let test_coarse_group_by_kept () =
  let best =
    Optimizer.Planner.choose catalog stats
      (parse "SELECT P.COLOR, COUNT(*) FROM PARTS P GROUP BY P.COLOR")
  in
  Alcotest.(check string) "grouping that is not a key stays" "as-written"
    best.Optimizer.Planner.name

let test_subquery_to_join_considered () =
  let q =
    parse
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = :N AND \
       EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PN)"
  in
  let strategies = Optimizer.Planner.enumerate catalog stats q in
  Alcotest.(check bool) "join strategy offered" true
    (List.exists
       (fun s -> s.Optimizer.Planner.name = "subquery-to-join")
       strategies)

let test_intersect_strategy_considered () =
  let q =
    parse
      "SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO FROM AGENTS A"
  in
  let strategies = Optimizer.Planner.enumerate catalog stats q in
  Alcotest.(check bool) "intersect-to-exists offered" true
    (List.exists
       (fun s -> s.Optimizer.Planner.name = "intersect-to-exists")
       strategies)

let test_cost_monotone_in_cardinality () =
  let q = parse "SELECT DISTINCT P.COLOR FROM PARTS P" in
  let small = Optimizer.Cost.query catalog (fun _ -> 100) q in
  let large = Optimizer.Cost.query catalog (fun _ -> 100_000) q in
  Alcotest.(check bool) "bigger input costs more" true
    (large.Optimizer.Cost.cost > small.Optimizer.Cost.cost)

let test_distinct_costs_extra () =
  let qd = parse "SELECT DISTINCT P.COLOR FROM PARTS P" in
  let qa = parse "SELECT ALL P.COLOR FROM PARTS P" in
  let ed = Optimizer.Cost.query catalog stats qd in
  let ea = Optimizer.Cost.query catalog stats qa in
  Alcotest.(check bool) "DISTINCT adds sort cost" true
    (ed.Optimizer.Cost.cost > ea.Optimizer.Cost.cost)

let test_group_by_costs_extra () =
  let qg = parse "SELECT P.COLOR, COUNT(*) FROM PARTS P GROUP BY P.COLOR" in
  let qa = parse "SELECT ALL P.COLOR FROM PARTS P" in
  let eg = Optimizer.Cost.query catalog stats qg in
  let ea = Optimizer.Cost.query catalog stats qa in
  Alcotest.(check (float 1e-6)) "GROUP BY adds one probe per input row"
    (ea.Optimizer.Cost.cost +. 10_000.0) eg.Optimizer.Cost.cost

let test_key_equality_selectivity () =
  (* pinning the full key of PARTS gives cardinality about 1 *)
  let q = parse "SELECT P.PNAME FROM PARTS P WHERE P.SNO = 1 AND P.PNO = 2" in
  let e = Optimizer.Cost.query catalog stats q in
  Alcotest.(check bool) "key lookup estimates ~1 row" true
    (e.Optimizer.Cost.card <= 2.0)

(* ---- join-planning primitives ---- *)

let spec_of s =
  match parse s with
  | Sql.Ast.Spec q -> q
  | Sql.Ast.Setop _ -> assert false

let test_restrict_key_pinned () =
  let q =
    spec_of "SELECT P.PNAME FROM PARTS P WHERE P.SNO = 1 AND P.PNO = 2"
  in
  let f = List.hd q.Sql.Ast.from in
  let e = Optimizer.Cost.restrict catalog stats f q.Sql.Ast.where in
  Alcotest.(check bool) "full key pinned: about one row" true
    (e.Optimizer.Cost.card <= 1.0 +. 1e-9);
  Alcotest.(check bool) "cost is the scan" true
    (e.Optimizer.Cost.cost = 10_000.0);
  let q2 = spec_of "SELECT P.PNAME FROM PARTS P WHERE P.COLOR = 'RED'" in
  let e2 = Optimizer.Cost.restrict catalog stats (List.hd q2.Sql.Ast.from) q2.Sql.Ast.where in
  Alcotest.(check bool) "non-key equality keeps 0.1 selectivity" true
    (abs_float (e2.Optimizer.Cost.card -. 1_000.0) < 1e-6)

let test_join_step_estimates () =
  let outer = { Optimizer.Cost.cost = 100.0; card = 100.0 } in
  let inner = { Optimizer.Cost.cost = 50.0; card = 50.0 } in
  let unique =
    Optimizer.Cost.join_step ~outer ~inner ~equis:1 ~unique_build:true
  in
  Alcotest.(check (float 1e-9)) "unique build caps card at the outer side"
    100.0 unique.Optimizer.Cost.card;
  let generic =
    Optimizer.Cost.join_step ~outer ~inner ~equis:1 ~unique_build:false
  in
  Alcotest.(check (float 1e-9)) "generic equality keeps 0.1 per edge" 500.0
    generic.Optimizer.Cost.card;
  let product =
    Optimizer.Cost.join_step ~outer ~inner ~equis:0 ~unique_build:false
  in
  Alcotest.(check (float 1e-9)) "no equality: full product" 5_000.0
    product.Optimizer.Cost.card;
  Alcotest.(check bool) "product pays every pair" true
    (product.Optimizer.Cost.cost > generic.Optimizer.Cost.cost)

let test_join_plan_star () =
  (* DIM1, DIM2, FACT in FROM order: the plan must start at FACT and
     certify both dimension builds unique (K is each dimension's key) *)
  let cat = Workload.Datagen.star_catalog in
  let st : Optimizer.Cost.table_stats = function
    | "FACT" -> 10_000
    | "DIM1" | "DIM2" -> 100
    | t -> failwith ("no stats for " ^ t)
  in
  let c =
    Optimizer.Join_plan.choose ~stats:st cat
      (parse Workload.Datagen.star_query)
  in
  Alcotest.(check string) "cost-ordered" "cost-ordered"
    c.Optimizer.Join_plan.name;
  Alcotest.(check int) "starts at FACT" 2 c.Optimizer.Join_plan.first;
  Alcotest.(check int) "both dimension builds unique" 2
    c.Optimizer.Join_plan.unique_builds;
  Alcotest.(check bool) "cheaper than FROM order" true
    (c.Optimizer.Join_plan.est_cost < c.Optimizer.Join_plan.from_order_cost);
  (* every unique step carries a spec that Algorithm 1 re-certifies *)
  List.iter
    (fun (s : Optimizer.Join_plan.step) ->
      if s.Optimizer.Join_plan.unique_build then
        match s.Optimizer.Join_plan.cert_spec with
        | None -> Alcotest.fail "unique step without a certificate spec"
        | Some spec ->
          Alcotest.(check bool) "certificate re-derives" true
            (Uniqueness.Algorithm1.distinct_is_redundant cat spec))
    c.Optimizer.Join_plan.steps

let test_join_plan_filtered_probe () =
  (* Example 1's join: the filtered PARTS side probes, SUPPLIER (keyed on
     SNO) is the unique build *)
  let c = Optimizer.Join_plan.choose ~stats catalog (parse example1) in
  Alcotest.(check int) "one unique build" 1
    c.Optimizer.Join_plan.unique_builds;
  (match c.Optimizer.Join_plan.steps with
  | [ s ] ->
    Alcotest.(check string) "SUPPLIER is the build side" "S"
      s.Optimizer.Join_plan.leaf_name;
    Alcotest.(check bool) "its build is unique" true
      s.Optimizer.Join_plan.unique_build
  | _ -> Alcotest.fail "expected exactly one join step");
  (* single-table and set-operation queries have nothing to plan *)
  let none =
    Optimizer.Join_plan.choose ~stats catalog
      (parse "SELECT P.PNO FROM PARTS P")
  in
  Alcotest.(check string) "nothing to plan" "none"
    none.Optimizer.Join_plan.name

let test_join_plan_estimates_match_measured () =
  (* On an FK-clean instance, the unique-build step's estimated
     cardinality (outer side) is exact: every PARTS row finds its
     SUPPLIER *)
  let db =
    Workload.Generator.supplier_db ~suppliers:30 ~parts_per_supplier:3 ()
  in
  let cat = Engine.Database.catalog db in
  let q =
    parse "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO"
  in
  let c = Optimizer.Join_plan.choose ~database:db cat q in
  Alcotest.(check int) "SUPPLIER build is unique" 1
    c.Optimizer.Join_plan.unique_builds;
  let est_card =
    match List.rev c.Optimizer.Join_plan.steps with
    | last :: _ -> last.Optimizer.Join_plan.est.Optimizer.Cost.card
    | [] -> nan
  in
  let cfg =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.join_impl = c.Optimizer.Join_plan.impl }
  in
  let r = Engine.Exec.run_query ~config:cfg db ~hosts:[] q in
  Alcotest.(check int) "estimate equals the measured row count"
    (Engine.Relation.cardinality r)
    (int_of_float est_card)

(* ---- asymmetric, order-aware join costing ---- *)

let attr_join = "SELECT F.ID, D1.K FROM DIM1 D1, FACT F WHERE D1.ATTR = F.FK1"

let star_db = lazy (Workload.Datagen.star_db ~rows:20_000 ())

(* A hash join stores its build side and streams its probe side, so the
   non-key join of a 447-row dimension with 20,000 fact rows builds the
   dimension, whichever table FROM lists first. *)
let test_join_plan_builds_smaller_side () =
  let db = Lazy.force star_db in
  let cat = Engine.Database.catalog db in
  let c = Optimizer.Join_plan.choose ~database:db cat (parse attr_join) in
  Alcotest.(check int) "probes FACT" 1 c.Optimizer.Join_plan.first;
  match c.Optimizer.Join_plan.steps with
  | [ s ] ->
    Alcotest.(check string) "builds DIM1" "D1" s.Optimizer.Join_plan.leaf_name;
    Alcotest.(check (float 1e-9)) "build rows"
      (float_of_int (Engine.Database.row_count db "DIM1"))
      s.Optimizer.Join_plan.build_rows;
    Alcotest.(check (float 1e-9)) "probe rows" 20_000.0
      s.Optimizer.Join_plan.probe_rows
  | _ -> Alcotest.fail "expected exactly one join step"

(* Rows of [sql] under the physical plan, with the order strategy, and
   under the plan's join order with the materializing sort. *)
let run_sorted db sql =
  let cat = Engine.Database.catalog db in
  let q = parse sql in
  let p = Optimizer.Physical.plan ~database:db cat q in
  let planned =
    Engine.Exec.run_query ~config:p.Optimizer.Physical.config db ~hosts:[]
      p.Optimizer.Physical.query
  in
  let baseline =
    Engine.Exec.run_query
      ~config:
        { (Engine.Exec.default_config ()) with
          Engine.Exec.sort_impl = Engine.Exec.Materialize_sort }
      db ~hosts:[] q
  in
  (p.Optimizer.Physical.order.Optimizer.Order_plan.name, planned, baseline)

let check_list_equal what (a : Engine.Relation.t) (b : Engine.Relation.t) =
  Alcotest.(check bool) (what ^ ": list-equal to the materializing sort") true
    (List.length a.Engine.Relation.rows = List.length b.Engine.Relation.rows
    && List.for_all2 Engine.Relation.equal_rows a.Engine.Relation.rows
         b.Engine.Relation.rows)

(* Probing FACT (stored in ID order) delivers ORDER BY F.ID for free. *)
let test_join_plan_probe_order_elides_sort () =
  let db = Lazy.force star_db in
  let sql = attr_join ^ " ORDER BY F.ID" in
  let name, planned, baseline = run_sorted db sql in
  Alcotest.(check string) "sort elided" "elided-sort" name;
  check_list_equal sql planned baseline

(* ORDER BY D1.K: only a pipeline started at DIM1 (stored in K order)
   arrives sorted, so the sort charge outweighs building FACT; from
   either FROM order the plan probes DIM1, elides the sort, and returns
   the materializing sort's list. *)
let test_join_plan_sort_charge () =
  let db = Lazy.force star_db in
  let cat = Engine.Database.catalog db in
  List.iter
    (fun sql ->
      let c = Optimizer.Join_plan.choose ~database:db cat (parse sql) in
      Alcotest.(check string) (sql ^ ": probes DIM1") "D1"
        (match parse sql with
         | Sql.Ast.Spec spec ->
           Sql.Ast.from_name (List.nth spec.Sql.Ast.from c.Optimizer.Join_plan.first)
         | Sql.Ast.Setop _ -> "?");
      Alcotest.(check (float 1e-9)) (sql ^ ": no sort charged") 0.0
        c.Optimizer.Join_plan.sort_charge;
      let name, planned, baseline = run_sorted db sql in
      Alcotest.(check string) (sql ^ ": sort elided") "elided-sort" name;
      check_list_equal sql planned baseline)
    [ attr_join ^ " ORDER BY D1.K";
      "SELECT F.ID, D1.K FROM FACT F, DIM1 D1 WHERE D1.ATTR = F.FK1 ORDER BY \
       D1.K" ]

(* Both SUPPLIER (stored on SNO) and PARTS (stored on SNO, PNO) follow
   the join key, so the step is costed as, and issued as, a merge join,
   symmetric in its sides: the plan keeps the filtered
   SUPPLIER as the probe, as under the symmetric hash cost. The non-key
   star join has no such order and stays a hash step. *)
let test_join_plan_costs_merge_steps () =
  let db = Workload.Generator.supplier_db ~suppliers:2_000 ~parts_per_supplier:5 () in
  let cat = Engine.Database.catalog db in
  let c =
    Optimizer.Join_plan.choose ~database:db cat
      (parse
         "SELECT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNAME = \
          'SUPPLIER-7' AND S.SNO = P.SNO AND P.PNO = 3")
  in
  Alcotest.(check int) "probes SUPPLIER" 0 c.Optimizer.Join_plan.first;
  (match c.Optimizer.Join_plan.steps with
   | [ s ] ->
     Alcotest.(check bool) "costed as a merge join" true s.Optimizer.Join_plan.merge
   | _ -> Alcotest.fail "expected exactly one join step");
  Alcotest.(check bool) "issued as a merge join" true
    (match c.Optimizer.Join_plan.impl with
     | Engine.Exec.Planned_join { jo_steps = [ st ]; _ } -> st.Engine.Exec.js_merge
     | _ -> false);
  let star = Lazy.force star_db in
  let c =
    Optimizer.Join_plan.choose ~database:star (Engine.Database.catalog star)
      (parse attr_join)
  in
  Alcotest.(check bool) "non-key join is a hash step" false
    (List.exists (fun s -> s.Optimizer.Join_plan.merge) c.Optimizer.Join_plan.steps)

(* For any table sizes, a two-leaf non-key equi-join with no ORDER BY
   builds the leaf with fewer rows. *)
let prop_builds_smaller_leaf =
  QCheck2.Test.make ~name:"two-leaf non-key join builds the smaller leaf"
    ~count:300
    QCheck2.Gen.(triple (int_range 1 1_000_000) (int_range 1 1_000_000) bool)
    (fun (dim, fact, fact_first) ->
      let rows = function "DIM1" -> dim | "FACT" -> fact | _ -> 0 in
      let sql =
        if fact_first then
          "SELECT F.ID, D1.K FROM FACT F, DIM1 D1 WHERE D1.ATTR = F.FK1"
        else attr_join
      in
      let spec =
        match parse sql with Sql.Ast.Spec s -> s | Sql.Ast.Setop _ -> assert false
      in
      let c =
        Optimizer.Join_plan.choose ~stats:rows Workload.Datagen.star_catalog
          (Sql.Ast.Spec spec)
      in
      let table i = (List.nth spec.Sql.Ast.from i).Sql.Ast.table in
      match c.Optimizer.Join_plan.steps with
      | [ s ] ->
        rows (table s.Optimizer.Join_plan.leaf)
        <= rows (table c.Optimizer.Join_plan.first)
      | _ -> false)

(* The DISTINCT path narrated is the one that runs: the narration reads
   the stream under the plan's join order, not FROM order. *)
let test_physical_narrates_distinct_path () =
  let db = Workload.Generator.supplier_db ~suppliers:200 ~parts_per_supplier:5 () in
  let cat = Engine.Database.catalog db in
  List.iter
    (fun sql ->
      let p = Optimizer.Physical.plan ~database:db cat (parse sql) in
      let c = p.Optimizer.Physical.config in
      ignore (Engine.Exec.run_query ~config:c db ~hosts:[] p.Optimizer.Physical.query);
      Alcotest.(check string) (sql ^ ": narrated path ran")
        p.Optimizer.Physical.distinct.Optimizer.Distinct_plan.name
        c.Engine.Exec.stats.Engine.Stats.dedup_strategy)
    [ "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM \
       PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')";
      "SELECT DISTINCT S.SNO FROM SUPPLIER S INTERSECT SELECT DISTINCT A.SNO \
       FROM AGENTS A" ]

(* The unique builds and merge joins narrated are the ones that run:
   Example 1's join and the AGENTS/SUPPLIER ORDER BY join run as merge
   joins, which build nothing; the star join builds both dimensions
   unique. *)
let test_physical_narrates_unique_builds () =
  let paper = Workload.Generator.supplier_db ~suppliers:200 ~parts_per_supplier:5 () in
  let star = Workload.Datagen.star_db ~rows:2_000 () in
  List.iter
    (fun (name, db, sql, builds, merges) ->
      let cat = Engine.Database.catalog db in
      let trace = Trace.make () in
      let p = Optimizer.Physical.plan ~join_trace:trace ~database:db cat (parse sql) in
      let c = p.Optimizer.Physical.config in
      ignore (Engine.Exec.run_query ~config:c db ~hosts:[] p.Optimizer.Physical.query);
      let node =
        match Trace.nodes trace with
        | [ n ] -> n
        | ns -> Alcotest.failf "%s: %d planner.join nodes" name (List.length ns)
      in
      let merge_steps =
        List.length
          (List.filter
             (fun (st : Trace.node) -> List.assoc "merge" st.Trace.facts = "yes")
             node.Trace.children)
      in
      let run = c.Engine.Exec.stats in
      Alcotest.(check int) (name ^ ": unique builds run") builds
        run.Engine.Stats.unique_builds;
      Alcotest.(check string) (name ^ ": narrated = run") (string_of_int builds)
        (List.assoc "unique-builds" node.Trace.facts);
      Alcotest.(check int) (name ^ ": merge joins run") merges
        run.Engine.Stats.merge_joins;
      Alcotest.(check int) (name ^ ": merge steps narrated = run") merges
        merge_steps;
      Alcotest.(check string) (name ^ ": merge joins counted = run")
        (string_of_int merges)
        (List.assoc "merge-joins" node.Trace.facts))
    [ ("Example 1", paper, example1, 0, 1);
      ( "AGENTS ORDER BY",
        paper,
        "SELECT A.SNO, A.ANO, A.ANAME, S.SNAME FROM SUPPLIER S, AGENTS A \
         WHERE S.SNO = A.SNO ORDER BY A.SNO, A.ANO",
        0,
        1 );
      ("star join", star, Workload.Datagen.star_query, 2, 0) ]

(* A two-valued query is planned on its translation. Algorithm 1 reads
   NOT (T.K <> 5) as T.K = 5, a key equality that would remove the
   DISTINCT; under two-valued logic the NULL key satisfies the predicate
   too, so both rows qualify and DISTINCT T.V has one row (and T.K,
   where three-valued logic would select one, two). A view's predicate
   merges into the query only on expansion, so the translation runs on
   the expanded query: V.K keeps the NULL row as T.K does. *)
let test_physical_two_valued () =
  let base =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE T (K INTEGER, V INTEGER, UNIQUE (K))"
  in
  let db = Engine.Database.create base in
  Engine.Database.load db "T"
    [ [| Sqlval.Value.Int 5; Sqlval.Value.Int 1 |];
      [| Sqlval.Value.Null; Sqlval.Value.Int 1 |] ];
  let cat =
    Uniqueness.Views.register_ddl base
      "CREATE VIEW V AS SELECT T.K FROM T WHERE NOT (T.K <> 5)"
  in
  List.iter
    (fun (sql, rows) ->
      let q = parse sql in
      let as_written =
        Engine.Exec.run_query
          ~config:
            { (Engine.Exec.default_config ()) with
              Engine.Exec.logic = Sqlval.Logic_mode.L2 }
          db ~hosts:[] (Uniqueness.Views.expand_query cat q)
      in
      let p =
        Optimizer.Physical.plan ~database:db cat
          (Optimizer.Physical.two_valued cat q)
      in
      let planned =
        Engine.Exec.run_query ~config:p.Optimizer.Physical.config db ~hosts:[]
          p.Optimizer.Physical.query
      in
      Alcotest.(check int) (sql ^ ": as written under 2VL") rows
        (Engine.Relation.cardinality as_written);
      Alcotest.(check bool) (sql ^ ": planned translation = as written") true
        (Engine.Relation.equal_bags as_written planned))
    [ ("SELECT DISTINCT T.V FROM T WHERE NOT (T.K <> 5)", 1);
      ("SELECT DISTINCT T.V FROM T WHERE NOT (T.K <> 5 OR T.V <> 1)", 1);
      ("SELECT T.K FROM T WHERE NOT (T.K <> 5)", 2);
      ("SELECT V.K FROM V", 2) ]

(* ---- Physical.plan: one composed plan ---- *)

let supplier_db () =
  Workload.Generator.supplier_db ~suppliers:40 ~parts_per_supplier:3 ()

let view_ddl = "CREATE VIEW V AS SELECT S.SNO, S.SNAME FROM SUPPLIER S"

(* The executed config is the authorities' choices for the query the
   planner picked, the ORDER BY one probed under the DISTINCT and join
   ones: a hash DISTINCT scrambles arrival order, so the sort stays; a
   key-covered DISTINCT is removed by the Theorem 1 rewrite, so the scan
   keeps its key order and the sort goes. *)
let test_physical_composes () =
  let db = supplier_db () in
  let cat = Engine.Database.catalog db in
  List.iter
    (fun (sql, strategy, distinct, order) ->
      let p = Optimizer.Physical.plan ~database:db cat (parse sql) in
      let c = p.Optimizer.Physical.config in
      Alcotest.(check string) (sql ^ ": strategy") strategy
        p.Optimizer.Physical.strategy.Optimizer.Planner.name;
      Alcotest.(check bool) (sql ^ ": plans the chosen query") true
        (p.Optimizer.Physical.query
         = p.Optimizer.Physical.strategy.Optimizer.Planner.query);
      Alcotest.(check string) (sql ^ ": distinct") distinct
        p.Optimizer.Physical.distinct.Optimizer.Distinct_plan.name;
      Alcotest.(check string) (sql ^ ": order") order
        p.Optimizer.Physical.order.Optimizer.Order_plan.name;
      Alcotest.(check bool) (sql ^ ": config runs the choices") true
        (c.Engine.Exec.distinct_impl
         = p.Optimizer.Physical.distinct.Optimizer.Distinct_plan.impl
         && c.Engine.Exec.sort_impl
            = p.Optimizer.Physical.order.Optimizer.Order_plan.impl
         && c.Engine.Exec.join_impl
            = p.Optimizer.Physical.order.Optimizer.Order_plan.join_impl
         && c.Engine.Exec.exists_impl = Engine.Exec.Indexed_exists))
    [ ("SELECT DISTINCT P.COLOR FROM PARTS P ORDER BY P.COLOR", "as-written",
       "hash-unique", "materialize-sort");
      ("SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S ORDER BY S.SNO",
       "distinct-removed (Alg. 1)", "none", "elided-sort") ]

(* Views are merged before planning: the plan is made for, and runs,
   the query over base tables. *)
let test_physical_expands_views () =
  let db = supplier_db () in
  let cat =
    Uniqueness.Views.register_ddl (Engine.Database.catalog db) view_ddl
  in
  let p =
    Optimizer.Physical.plan ~database:db cat
      (parse "SELECT V.SNO FROM V ORDER BY V.SNO")
  in
  Alcotest.(check bool) "no view left in the planned query" true
    (match p.Optimizer.Physical.query with
     | Sql.Ast.Spec s ->
       List.for_all
         (fun f -> f.Sql.Ast.table = "SUPPLIER") s.Sql.Ast.from
     | Sql.Ast.Setop _ -> false);
  Alcotest.(check string) "sort elided on the key order" "elided-sort"
    p.Optimizer.Physical.order.Optimizer.Order_plan.name;
  let r =
    Engine.Exec.run_query ~config:p.Optimizer.Physical.config db ~hosts:[]
      p.Optimizer.Physical.query
  in
  Alcotest.(check int) "every supplier" 40 (Engine.Relation.cardinality r)

(* The one entry point runs what the planner chose: Example 7's EXISTS
   is unnested (Theorem 2 / Corollary 1) into a join, so the plan reads
   each table about once instead of probing PARTS per supplier, and
   returns the as-written query's bag. *)
let test_physical_runs_chosen_rewrite () =
  let suppliers = 2_000 and parts_per_supplier = 5 in
  let db =
    Workload.Generator.supplier_db ~suppliers ~parts_per_supplier ()
  in
  let cat = Engine.Database.catalog db in
  let q =
    parse
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM \
       PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"
  in
  let p = Optimizer.Physical.plan ~database:db cat q in
  Alcotest.(check string) "strategy" "subquery-to-join"
    p.Optimizer.Physical.strategy.Optimizer.Planner.name;
  let planned =
    Engine.Exec.run_query ~config:p.Optimizer.Physical.config db ~hosts:[]
      p.Optimizer.Physical.query
  in
  let base = Engine.Exec.run_query db ~hosts:[] q in
  Alcotest.(check bool) "bag-equal to the baseline run" true
    (Engine.Relation.equal_bags base planned);
  let scanned =
    p.Optimizer.Physical.config.Engine.Exec.stats.Engine.Stats.rows_scanned
  in
  let bound = 2 * (suppliers + (suppliers * parts_per_supplier)) in
  if scanned > bound then
    Alcotest.failf "rows scanned %d exceed 2 x (suppliers + parts) = %d"
      scanned bound

(* A NOT EXISTS stays nested (no rewrite applies) and runs indexed: one
   subquery evaluation per outer row, as in the nested-loop baseline,
   and the same bag. *)
let test_physical_indexes_exists () =
  let db = Workload.Generator.supplier_db ~suppliers:200 ~parts_per_supplier:5 () in
  let cat = Engine.Database.catalog db in
  let q =
    parse
      "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE NOT EXISTS (SELECT * FROM \
       PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"
  in
  let p = Optimizer.Physical.plan ~database:db cat q in
  let c = p.Optimizer.Physical.config in
  Alcotest.(check string) "strategy" "as-written"
    p.Optimizer.Physical.strategy.Optimizer.Planner.name;
  Alcotest.(check bool) "indexed EXISTS" true
    (c.Engine.Exec.exists_impl = Engine.Exec.Indexed_exists);
  let planned = Engine.Exec.run_query ~config:c db ~hosts:[] p.Optimizer.Physical.query in
  let base_config = Engine.Exec.default_config () in
  let base = Engine.Exec.run_query ~config:base_config db ~hosts:[] q in
  Alcotest.(check int) "rows" 56 (Engine.Relation.cardinality planned);
  Alcotest.(check bool) "bag-equal to the baseline run" true
    (Engine.Relation.equal_bags base planned);
  Alcotest.(check int) "subquery evaluations"
    base_config.Engine.Exec.stats.Engine.Stats.subquery_evals
    c.Engine.Exec.stats.Engine.Stats.subquery_evals

(* Order_plan never raises: a query the instance cannot run (an
   unexpanded view) degrades to the materializing sort. *)
let test_order_plan_degrades_on_views () =
  let db = supplier_db () in
  let cat =
    Uniqueness.Views.register_ddl (Engine.Database.catalog db) view_ddl
  in
  let c =
    Optimizer.Order_plan.choose ~database:db cat
      (parse "SELECT V.SNO FROM V ORDER BY V.SNO")
  in
  Alcotest.(check string) "materialize-sort" "materialize-sort"
    c.Optimizer.Order_plan.name

let () =
  Alcotest.run "optimizer"
    [
      ( "planner",
        [
          Alcotest.test_case "rewrites expand the space" `Quick
            test_enumerate_expands_space;
          Alcotest.test_case "ablation baseline" `Quick test_ablation_baseline;
          Alcotest.test_case "distinct removal preferred" `Quick
            test_distinct_removal_preferred;
          Alcotest.test_case "group-by removal preferred" `Quick
            test_group_by_removal_preferred;
          Alcotest.test_case "coarse GROUP BY kept" `Quick
            test_coarse_group_by_kept;
          Alcotest.test_case "subquery-to-join considered" `Quick
            test_subquery_to_join_considered;
          Alcotest.test_case "intersect strategy considered" `Quick
            test_intersect_strategy_considered;
        ] );
      ( "cost",
        [
          Alcotest.test_case "monotone in cardinality" `Quick
            test_cost_monotone_in_cardinality;
          Alcotest.test_case "DISTINCT costs extra" `Quick
            test_distinct_costs_extra;
          Alcotest.test_case "GROUP BY costs extra" `Quick
            test_group_by_costs_extra;
          Alcotest.test_case "key equality selectivity" `Quick
            test_key_equality_selectivity;
          Alcotest.test_case "restrict honors key pinning" `Quick
            test_restrict_key_pinned;
          Alcotest.test_case "join_step cardinalities" `Quick
            test_join_step_estimates;
        ] );
      ( "join-plan",
        [
          Alcotest.test_case "star schema: fact first, dims unique" `Quick
            test_join_plan_star;
          Alcotest.test_case "filtered side probes, keyed side builds" `Quick
            test_join_plan_filtered_probe;
          Alcotest.test_case "estimates match measured rows on FK data" `Quick
            test_join_plan_estimates_match_measured;
          Alcotest.test_case "non-key join builds the smaller side" `Quick
            test_join_plan_builds_smaller_side;
          Alcotest.test_case "probing the ordered side elides the sort" `Quick
            test_join_plan_probe_order_elides_sort;
          Alcotest.test_case "sort charge picks the ordered probe" `Quick
            test_join_plan_sort_charge;
          Alcotest.test_case "merge-ordered steps cost as merge joins" `Quick
            test_join_plan_costs_merge_steps;
          QCheck_alcotest.to_alcotest prop_builds_smaller_leaf;
        ] );
      ( "physical",
        [
          Alcotest.test_case "composes the three authorities" `Quick
            test_physical_composes;
          Alcotest.test_case "plans the view-expanded query" `Quick
            test_physical_expands_views;
          Alcotest.test_case "runs the chosen rewrite (Example 7)" `Quick
            test_physical_runs_chosen_rewrite;
          Alcotest.test_case "indexes a NOT EXISTS" `Quick
            test_physical_indexes_exists;
          Alcotest.test_case "narrates the DISTINCT path that runs" `Quick
            test_physical_narrates_distinct_path;
          Alcotest.test_case "narrates the unique builds that run" `Quick
            test_physical_narrates_unique_builds;
          Alcotest.test_case "order plan degrades on unexpanded views" `Quick
            test_order_plan_degrades_on_views;
          Alcotest.test_case "plans a two-valued query's translation" `Quick
            test_physical_two_valued;
        ] );
    ]
