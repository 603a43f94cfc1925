(* Decision-trace tests: the rendered explain output for the paper's
   flagship example is pinned exactly (tree and JSON), and a fixed-seed
   fuzz hook asserts that turning tracing on never changes an analyzer
   verdict, a rewrite result, or a query result. *)

module D = Difftest
module A1 = Uniqueness.Algorithm1
module R = Uniqueness.Rewrite

let catalog = Workload.Paper_schema.catalog ()

let example1 =
  "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
   S.SNO = P.SNO AND P.COLOR = 'RED'"

let algorithm1_nodes sql =
  let t = Trace.make () in
  ignore (A1.analyze ~trace:t catalog (Sql.Parser.parse_query_spec sql));
  Trace.nodes t

(* ---- exact snapshots (paper Example 1) ---- *)

let expected_tree =
  {|* algorithm1.line5 -- the selection predicate in conjunctive normal form
    < C = S.SNO = P.SNO AND P.COLOR = 'RED' AND T
* algorithm1.line6-9 -- C is unchanged
* algorithm1.line10 -- C is not simply true; we proceed
* algorithm1.line11 -- the remaining equality conditions in disjunctive normal form
    < E1 = S.SNO = P.SNO AND P.COLOR = 'RED'
* algorithm1.line13 -- V starts as the projection attributes
    > V = {P.PNAME, P.PNO, S.SNO}
* algorithm1.line14 -- columns pinned by Type-1 equalities join V
    < P.COLOR = P.COLOR = 'RED'
    > V = {P.COLOR, P.PNAME, P.PNO, S.SNO}
* algorithm1.line15-16 -- transitive closure of V under the Type-2 equalities
    > V = {P.COLOR, P.PNAME, P.PNO, P.SNO, S.SNO}
  * closure.type2 -- Type-2 equality propagates bound-ness transitively
      < condition = S.SNO = P.SNO
      > bound = P.SNO
* algorithm1.line17 (Theorem 1) -- does V contain a candidate key of every table of the product?
    > S = candidate key {S.SNO} is contained in V
    > P = candidate key {P.PNO, P.SNO} is contained in V
* [YES] algorithm1.verdict (Theorem 1 / Algorithm 1) -- a candidate key of every table is functionally bound
    > V = {P.COLOR, P.PNAME, P.PNO, P.SNO, S.SNO}|}

let test_tree_snapshot () =
  let got = Format.asprintf "%a" Trace.pp (algorithm1_nodes example1) in
  Alcotest.(check string) "Example 1 Algorithm 1 tree" expected_tree got

let expected_json =
  {|[{"rule":"algorithm1.line5","verdict":"info","detail":"the selection predicate in conjunctive normal form","inputs":{"C":"S.SNO = P.SNO AND P.COLOR = 'RED' AND T"}},{"rule":"algorithm1.line6-9","verdict":"info","detail":"C is unchanged"},{"rule":"algorithm1.line10","verdict":"info","detail":"C is not simply true; we proceed"},{"rule":"algorithm1.line11","verdict":"info","detail":"the remaining equality conditions in disjunctive normal form","inputs":{"E1":"S.SNO = P.SNO AND P.COLOR = 'RED'"}},{"rule":"algorithm1.line13","verdict":"info","detail":"V starts as the projection attributes","facts":{"V":"{P.PNAME, P.PNO, S.SNO}"}},{"rule":"algorithm1.line14","verdict":"info","detail":"columns pinned by Type-1 equalities join V","inputs":{"P.COLOR":"P.COLOR = 'RED'"},"facts":{"V":"{P.COLOR, P.PNAME, P.PNO, S.SNO}"}},{"rule":"algorithm1.line15-16","verdict":"info","detail":"transitive closure of V under the Type-2 equalities","facts":{"V":"{P.COLOR, P.PNAME, P.PNO, P.SNO, S.SNO}"},"children":[{"rule":"closure.type2","verdict":"info","detail":"Type-2 equality propagates bound-ness transitively","inputs":{"condition":"S.SNO = P.SNO"},"facts":{"bound":"P.SNO"}}]},{"rule":"algorithm1.line17","citation":"Theorem 1","verdict":"info","detail":"does V contain a candidate key of every table of the product?","facts":{"S":"candidate key {S.SNO} is contained in V","P":"candidate key {P.PNO, P.SNO} is contained in V"}},{"rule":"algorithm1.verdict","citation":"Theorem 1 / Algorithm 1","verdict":"yes","detail":"a candidate key of every table is functionally bound","facts":{"V":"{P.COLOR, P.PNAME, P.PNO, P.SNO, S.SNO}"}}]|}

let test_json_snapshot () =
  let got = Trace.Json.to_string (Trace.to_json (algorithm1_nodes example1)) in
  Alcotest.(check string) "Example 1 Algorithm 1 JSON" expected_json got

(* One section of an explain report over a generated supplier instance,
   rendered as the CLI prints it. *)
let explain_section ~suppliers title sql =
  let db =
    Workload.Generator.supplier_db ~suppliers ~parts_per_supplier:5 ()
  in
  let report =
    Explain.explain ~database:db (Engine.Database.catalog db)
      (Sql.Parser.parse_query sql)
  in
  let section = List.find (fun s -> s.Explain.title = title) report.Explain.sections in
  Format.asprintf "%a" Trace.pp section.Explain.nodes

(* Algorithm 1 and the FD closure reach the same Theorem 1 outcome here:
   the planner narrates the attempt once, naming both analyzers. *)
let expected_planner_head =
  {|* [APPLIED] distinct-removal (Theorem 1) -- the projection functionally determines a candidate key of every table
    < analyzer = Algorithm 1, FD closure
    > result = SELECT ALL S.SNO FROM SUPPLIER S
* [NOT-APPLIED] intersect-to-exists (Theorem 3 / Corollary 2) -- not a matching set operation on query specifications|}

let test_planner_theorem1_once () =
  let got =
    explain_section ~suppliers:10 "planner" "SELECT DISTINCT S.SNO FROM SUPPLIER S"
  in
  Alcotest.(check string) "planner section head" expected_planner_head
    (String.sub got 0 (String.length expected_planner_head))

(* The join section names the side built and the side probed, each with
   its estimated rows. The step runs as a merge join, which builds
   nothing, so no unique build is counted or cited; the merge join is. *)
let expected_join_section =
  {|* [CHOSEN] planner.join -- greedy key-aware order P -> S: probe P (100 rows), build S (200 rows); 0 unique build(s), 1 merge join(s), est cost 1450 vs FROM-order 3350
    < query = SELECT ALL S.SNAME, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'
    > strategy = cost-ordered
    > order = P -> S
    > unique-builds = 0
    > merge-joins = 1
    > est-cost = 1450
    > from-order-cost = 3350
    > stats = database
  * planner.join.step -- both sides stored in join-key order: costed as a merge join
      > build = S
      > build-rows = 200
      > probe = P
      > probe-rows = 100
      > equi-edges = 1
      > unique-build = n/a (merge join)
      > merge = yes
      > est-card = 100
      > est-cost = 1450|}

let test_join_section_snapshot () =
  Alcotest.(check string) "join-strategy section" expected_join_section
    (explain_section ~suppliers:200 "join-strategy"
       "SELECT ALL S.SNAME, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = \
        P.SNO AND P.COLOR = 'RED'")

(* the pretty printer must round-trip: same document, only whitespace
   outside string literals may differ *)
let strip_outside_strings s =
  let b = Buffer.create (String.length s) in
  let in_string = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_string then begin
        Buffer.add_char b c;
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else if c = '"' then begin
        Buffer.add_char b c;
        in_string := true
      end
      else if not (c = ' ' || c = '\n') then Buffer.add_char b c)
    s;
  Buffer.contents b

let test_json_pretty_roundtrip () =
  let doc = Trace.to_json (algorithm1_nodes example1) in
  Alcotest.(check string) "pretty and compact agree modulo layout"
    (strip_outside_strings (Trace.Json.to_string doc))
    (strip_outside_strings (Trace.Json.to_string_pretty doc))

(* ---- the full explain report ---- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_report_names_the_evidence () =
  let report = Explain.explain catalog (Sql.Parser.parse_query example1) in
  let rendered = Format.asprintf "%a" Explain.pp report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions: " ^ needle) true
        (contains rendered needle))
    [ "candidate key {S.SNO} is contained in V";
      "candidate key {P.PNO, P.SNO} is contained in V";
      "closure.type2";
      "Theorem 1 / Algorithm 1";
      "[YES]";
      "[APPLIED] distinct-removal (Theorem 1)";
      "[CHOSEN]" ];
  Alcotest.(check string) "rewritten form drops the DISTINCT"
    "SELECT ALL S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = \
     P.SNO AND P.COLOR = 'RED'"
    (Sql.Pretty.query report.Explain.rewritten)

let test_report_deterministic () =
  let build () =
    Trace.Json.to_string
      (Explain.to_json (Explain.explain catalog (Sql.Parser.parse_query example1)))
  in
  Alcotest.(check string) "two builds render identically" (build ()) (build ())

let test_setop_report () =
  let q =
    Sql.Parser.parse_query
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' INTERSECT \
       SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'"
  in
  let rendered = Format.asprintf "%a" Explain.pp (Explain.explain catalog q) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("setop report mentions: " ^ needle) true
        (contains rendered needle))
    [ "algorithm1.operand"; "operand = left"; "operand = right";
      "[APPLIED] intersect-to-exists (Theorem 3 / Corollary 2)" ]

(* [--run] executes the plan the planners chose and narrated, not the
   engine default. A key-covered DISTINCT is removed by the planner's
   Theorem 1 rewrite, so the query that runs has no DISTINCT (no dedup
   state, no elision left to count) and keeps the scan's key order, so an
   ORDER BY on the key is elided. A hash DISTINCT scrambles arrival order,
   so the ORDER BY planner, probed under it, keeps the materializing
   sort. *)
let test_run_executes_planned_strategy () =
  let db =
    Workload.Generator.supplier_db ~suppliers:100 ~parts_per_supplier:5 ()
  in
  List.iter
    (fun (sql, strategy, order_strategy, expected) ->
      let report =
        Explain.explain ~database:db (Engine.Database.catalog db)
          (Sql.Parser.parse_query sql)
      in
      Alcotest.(check (option string)) (sql ^ ": chosen strategy")
        (Some strategy)
        (Option.map (fun c -> c.Optimizer.Planner.name) report.Explain.chosen);
      let section =
        List.find (fun s -> s.Explain.title = "order-strategy")
          report.Explain.sections
      in
      let chosen =
        List.find (fun n -> n.Trace.verdict = Trace.Chosen) section.Explain.nodes
      in
      Alcotest.(check (option string)) (sql ^ ": narrated order strategy")
        (Some order_strategy) (List.assoc_opt "strategy" chosen.Trace.facts);
      match report.Explain.execution with
      | Some { Explain.counters; _ } ->
        List.iter
          (fun (k, v) ->
            Alcotest.(check int) (sql ^ ": " ^ k) v (List.assoc k counters))
          expected
      | None -> Alcotest.fail "expected an execution")
    [ ("SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = \
        'Chicago'",
       "distinct-removed (Alg. 1)", "none",
       [ ("distinct_elisions", 0); ("sorts", 0); ("dedup_state_peak", 0) ]);
      ("SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S ORDER BY S.SNO",
       "distinct-removed (Alg. 1)", "elided-sort",
       [ ("distinct_elisions", 0); ("sorts", 0); ("sort_elisions", 1);
         ("dedup_state_peak", 0) ]);
      ("SELECT DISTINCT P.COLOR FROM PARTS P ORDER BY P.COLOR", "as-written",
       "materialize-sort", [ ("sorts", 1) ]) ]

(* A view query is planned once, on the expanded query that runs: the
   order-strategy section narrates the plan the execution uses. *)
let test_run_view_order_by () =
  let db =
    Workload.Generator.supplier_db ~suppliers:100 ~parts_per_supplier:5 ()
  in
  let cat =
    Uniqueness.Views.register_ddl (Engine.Database.catalog db)
      "CREATE VIEW V AS SELECT S.SNO, S.SNAME FROM SUPPLIER S"
  in
  let report =
    Explain.explain ~database:db cat
      (Sql.Parser.parse_query "SELECT V.SNO FROM V ORDER BY V.SNO")
  in
  let section =
    List.find (fun s -> s.Explain.title = "order-strategy")
      report.Explain.sections
  in
  let chosen =
    List.find (fun n -> n.Trace.verdict = Trace.Chosen) section.Explain.nodes
  in
  Alcotest.(check (option string)) "narrated strategy" (Some "elided-sort")
    (List.assoc_opt "strategy" chosen.Trace.facts);
  Alcotest.(check bool) "the chosen query reads the base table" true
    (match report.Explain.chosen with
     | Some { Optimizer.Planner.query = Sql.Ast.Spec s; _ } ->
       List.for_all (fun f -> f.Sql.Ast.table = "SUPPLIER") s.Sql.Ast.from
     | Some _ | None -> false);
  match report.Explain.execution with
  | Some { Explain.rows; counters } ->
    Alcotest.(check int) "rows" 100 rows;
    Alcotest.(check int) "sort elided" 1 (List.assoc "sort_elisions" counters)
  | None -> Alcotest.fail "expected one execution"

(* A view that cannot be merged leaves no query to run: the report says
   so instead of raising. *)
let test_unmergeable_view () =
  let db =
    Workload.Generator.supplier_db ~suppliers:20 ~parts_per_supplier:2 ()
  in
  let cat =
    Uniqueness.Views.register_ddl (Engine.Database.catalog db)
      "CREATE VIEW W AS SELECT DISTINCT P.COLOR FROM PARTS P"
  in
  let report =
    Explain.explain ~database:db cat
      (Sql.Parser.parse_query "SELECT W.COLOR FROM W")
  in
  let section =
    List.find (fun s -> s.Explain.title = "distinct-strategy")
      report.Explain.sections
  in
  Alcotest.(check (list string)) "skipped" [ "physical.skipped" ]
    (List.map (fun n -> n.Trace.rule) section.Explain.nodes);
  Alcotest.(check bool) "nothing ran" true (report.Explain.execution = None)

(* ---- fuzz hook: tracing must never change behaviour ---- *)

let rng_of seed = Random.State.make [| seed |]

let prop_trace_never_changes_verdicts =
  QCheck2.Test.make
    ~name:"tracing on/off: identical analyzer verdicts and rewrite results"
    ~count:200 QCheck2.Gen.int
    (fun seed ->
      let rng = rng_of seed in
      let ddl = D.Schema_gen.generate ~rng in
      let cat = D.Schema_gen.catalog_of_ddl ddl in
      let spec = D.Query_gen.spec ~rng cat in
      let q = D.Query_gen.query ~rng cat in
      let traced f = f ~trace:(Trace.make ()) and plain f = f ~trace:Trace.disabled in
      let a1 ~trace = (A1.analyze ~trace cat spec).A1.answer in
      let fd ~trace =
        (Uniqueness.Fd_analysis.analyze ~trace cat spec).Uniqueness.Fd_analysis.unique
      in
      let rw ~trace = fst (R.apply_all ~trace cat q) in
      traced a1 = plain a1 && traced fd = plain fd && traced rw = plain rw)

let prop_explain_never_changes_results =
  QCheck2.Test.make
    ~name:"building an explain report never changes query results"
    ~count:60 QCheck2.Gen.int
    (fun seed ->
      let rng = rng_of seed in
      let case = D.Case.generate ~rng ~instances:1 ~rows:4 () in
      let cat = D.Case.catalog case in
      match case.D.Case.instances with
      | [] -> true
      | inst :: _ ->
        let db = D.Case.database case inst in
        let hosts = inst.D.Case.hosts in
        let direct =
          Engine.Exec.run_query db ~hosts case.D.Case.query
        in
        let report =
          Explain.explain ~stats:(Engine.Database.row_count db) ~database:db
            ~hosts cat case.D.Case.query
        in
        (match report.Explain.execution with
         | Some { Explain.rows; _ } -> rows = Engine.Relation.cardinality direct
         | None -> false))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_trace_never_changes_verdicts; prop_explain_never_changes_results ]

let () =
  Alcotest.run "trace"
    [ ("snapshots",
       [ Alcotest.test_case "example 1 tree" `Quick test_tree_snapshot;
         Alcotest.test_case "example 1 json" `Quick test_json_snapshot;
         Alcotest.test_case "json pretty round-trip" `Quick
           test_json_pretty_roundtrip;
         Alcotest.test_case "planner narrates Theorem 1 once" `Quick
           test_planner_theorem1_once;
         Alcotest.test_case "join section names build and probe" `Quick
           test_join_section_snapshot ]);
      ("report",
       [ Alcotest.test_case "names the evidence" `Quick
           test_report_names_the_evidence;
         Alcotest.test_case "deterministic" `Quick test_report_deterministic;
         Alcotest.test_case "set operations" `Quick test_setop_report;
         Alcotest.test_case "--run executes the planned strategy" `Quick
           test_run_executes_planned_strategy;
         Alcotest.test_case "--run plans a view query once" `Quick
           test_run_view_order_by;
         Alcotest.test_case "unmergeable view is narrated" `Quick
           test_unmergeable_view ]);
      ("fuzz", qsuite) ]
