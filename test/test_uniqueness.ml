(* Tests for the paper's core contribution: Algorithm 1, the FD-based
   analyzer, and the exact (bounded-model) Theorem 1 checker — exercised on
   the paper's running examples and cross-validated against each other and
   against the execution engine. *)

module A1 = Uniqueness.Algorithm1
module FdA = Uniqueness.Fd_analysis
module Exact = Uniqueness.Exact
module Value = Sqlval.Value

let catalog = Workload.Paper_schema.catalog ()
let parse = Sql.Parser.parse_query_spec

let a1_yes ?paper_strict q = A1.distinct_is_redundant ?paper_strict catalog (parse q)
let fd_yes q = FdA.distinct_is_redundant catalog (parse q)

let exact_unique q =
  match Exact.check catalog (parse q) with
  | Exact.Unique -> true
  | Exact.Duplicable _ -> false
  | Exact.Unsupported reason -> Alcotest.fail ("unsupported: " ^ reason)

(* The paper's examples *)

let example1 =
  "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
   S.SNO = P.SNO AND P.COLOR = 'RED'"

let example2 =
  "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
   S.SNO = P.SNO AND P.COLOR = 'RED'"

let example4 =
  "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P \
   WHERE P.SNO = :SUPPLIER_NO AND S.SNO = P.SNO"

let example6 =
  "SELECT DISTINCT S.SNO, PNO, PNAME, P.COLOR FROM SUPPLIER S, PARTS P \
   WHERE S.SNAME = :SUPPLIER_NAME AND S.SNO = P.SNO"

(* ---- Algorithm 1 on the paper's examples ---- *)

let test_example1 () =
  Alcotest.(check bool) "Example 1: DISTINCT unnecessary" true (a1_yes example1)

let test_example2 () =
  Alcotest.(check bool) "Example 2: DISTINCT required" false (a1_yes example2)

let test_example4 () =
  Alcotest.(check bool) "Example 4: DISTINCT unnecessary" true (a1_yes example4)

let test_example6 () =
  Alcotest.(check bool) "Example 6: DISTINCT unnecessary" true (a1_yes example6)

(* Example 5 is the paper's step-by-step trace of Algorithm 1 on the
   Example 4 query; reproduce its milestones. *)
let test_example5_trace () =
  let report = A1.analyze catalog (parse example4) in
  Alcotest.(check bool) "YES" true (report.A1.answer = A1.Yes);
  let find line =
    match List.find_opt (fun s -> s.A1.line = line) report.A1.trace with
    | Some s -> s.A1.detail
    | None -> Alcotest.failf "no trace step for line %s" line
  in
  let contains hay needle =
    let h = String.uppercase_ascii hay and n = String.uppercase_ascii needle in
    let lh = String.length h and ln = String.length n in
    let rec go i = i + ln <= lh && (String.sub h i ln = n || go (i + 1)) in
    go 0
  in
  (* Line 5: C <=> P.SNO = :SUPPLIER_NO AND S.SNO = P.SNO AND T *)
  Alcotest.(check bool) "line 5 has both conjuncts" true
    (contains (find "5") "P.SNO = :SUPPLIER_NO" && contains (find "5") "S.SNO = P.SNO");
  (* Lines 6-9: C unchanged *)
  Alcotest.(check bool) "lines 6-9 unchanged" true
    (contains (find "6-9") "unchanged");
  (* Line 13: V = projection attributes *)
  Alcotest.(check bool) "line 13 V holds projection" true
    (contains (find "13") "S.SNO" && contains (find "13") "P.PNO");
  (* Line 14: P.SNO added as a Type-1 column *)
  Alcotest.(check bool) "line 14 adds P.SNO" true (contains (find "14") "P.SNO");
  (* Line 20: returns YES *)
  Alcotest.(check bool) "line 20 YES" true (contains (find "20") "YES")

let test_trace_shows_deletions () =
  let q = "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 1 AND S.BUDGET > 5" in
  let report = A1.analyze catalog (parse q) in
  Alcotest.(check bool) "non-equality clause deleted" true
    (List.exists
       (fun s -> s.A1.line = "6-9" && s.A1.detail <> "C is unchanged")
       report.A1.trace)

(* ---- boundary behaviour ---- *)

let test_no_predicate_full_key () =
  (* key fully projected, empty WHERE: intended behaviour says YES *)
  let q = "SELECT DISTINCT P.SNO, P.PNO FROM PARTS P" in
  Alcotest.(check bool) "default mode: YES" true (a1_yes q);
  (* printed algorithm (line 10) would return NO *)
  Alcotest.(check bool) "paper-strict: NO" false (a1_yes ~paper_strict:true q)

let test_composite_key_partial () =
  (* only half of PARTS' composite key: duplicates possible *)
  Alcotest.(check bool) "partial key" false
    (a1_yes "SELECT DISTINCT P.PNO FROM PARTS P")

let test_key_via_constant () =
  (* missing key column pinned by a constant *)
  Alcotest.(check bool) "constant completes key" true
    (a1_yes "SELECT DISTINCT P.PNO FROM PARTS P WHERE P.SNO = 7")

let test_key_via_transitivity () =
  (* S.SNO in projection; P.SNO = S.SNO makes P's key complete with P.PNO *)
  Alcotest.(check bool) "transitive closure" true
    (a1_yes
       "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE P.SNO = S.SNO")

let test_disjunction_rejected () =
  Alcotest.(check bool) "x = 5 OR x = 10 unusable" false
    (a1_yes "SELECT DISTINCT P.PNO FROM PARTS P WHERE P.SNO = 5 OR P.SNO = 10")

let test_inequality_rejected () =
  Alcotest.(check bool) "range predicate unusable" false
    (a1_yes "SELECT DISTINCT P.PNO FROM PARTS P WHERE P.SNO > 5")

let test_unsatisfiable_predicate () =
  (* WHERE FALSE: the result is empty, hence trivially duplicate-free, but
     Algorithm 1 deletes the FALSE clause (it is not an equality) and
     answers NO — sound, not complete. The exact checker gets it right. *)
  Alcotest.(check bool) "Algorithm 1 conservatively says NO" false
    (a1_yes "SELECT DISTINCT P.PNAME FROM PARTS P WHERE FALSE");
  Alcotest.(check bool) "exact checker proves uniqueness" true
    (exact_unique "SELECT ALL P.PNAME FROM PARTS P WHERE FALSE")

let test_candidate_key_unique_clause () =
  (* OEM_PNO is a candidate key (UNIQUE), good enough for the test *)
  Alcotest.(check bool) "candidate key in projection" true
    (a1_yes "SELECT DISTINCT P.OEM_PNO FROM PARTS P")

let test_three_tables () =
  (* Theorem 1 extends to more than two tables *)
  let q =
    "SELECT DISTINCT S.SNO, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A \
     WHERE S.SNO = P.SNO AND A.SNO = S.SNO"
  in
  Alcotest.(check bool) "three-table key" true (a1_yes q)

let test_three_tables_missing_one () =
  let q =
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P, AGENTS A \
     WHERE S.SNO = P.SNO AND A.SNO = S.SNO"
  in
  Alcotest.(check bool) "agents key missing" false (a1_yes q)

(* ---- FD analyzer: strictly more powerful on key-dependency chains ---- *)

let test_fd_agrees_on_examples () =
  Alcotest.(check bool) "ex1" true (fd_yes example1);
  Alcotest.(check bool) "ex2" false (fd_yes example2);
  Alcotest.(check bool) "ex4" true (fd_yes example4);
  Alcotest.(check bool) "ex6" true (fd_yes example6)

let test_fd_beats_algorithm1 () =
  (* OEM_PNO -> (SNO, PNO) is a key dependency, not an equality; Algorithm 1
     cannot traverse it, the FD closure can. *)
  let q =
    "SELECT DISTINCT P.OEM_PNO, S.SNAME FROM SUPPLIER S, PARTS P WHERE \
     S.SNO = P.SNO"
  in
  Alcotest.(check bool) "Algorithm 1 misses it" false (a1_yes q);
  Alcotest.(check bool) "FD closure detects it" true (fd_yes q)

(* ---- exact checker ---- *)

let test_exact_examples () =
  Alcotest.(check bool) "ex1 unique" true (exact_unique example1);
  Alcotest.(check bool) "ex2 duplicable" false (exact_unique example2);
  Alcotest.(check bool) "ex4 unique" true (exact_unique example4)

let test_exact_counterexample_is_concrete () =
  match Exact.check catalog (parse example2) with
  | Exact.Unique -> Alcotest.fail "expected a counterexample"
  | Exact.Unsupported reason -> Alcotest.fail ("unsupported: " ^ reason)
  | Exact.Duplicable ce ->
    (* the witness projections must agree (that is the duplicate) *)
    Alcotest.(check int) "arity" (Array.length ce.Exact.row1)
      (Array.length ce.Exact.row2);
    Array.iteri
      (fun i v ->
        Alcotest.(check bool) "projected rows agree" true
          (Value.equal_null v ce.Exact.row2.(i)))
      ce.Exact.row1

let test_exact_detects_nonkey_duplicates () =
  (* single table, non-key projection *)
  Alcotest.(check bool) "COLOR duplicable" false
    (exact_unique "SELECT ALL P.COLOR FROM PARTS P");
  Alcotest.(check bool) "full key unique" true
    (exact_unique "SELECT ALL P.SNO, P.PNO FROM PARTS P");
  (* INT and FLOAT compare numerically, so the search must be able to
     satisfy an INT = FLOAT equality *)
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE T (I INT NOT NULL, S VARCHAR(5), F FLOAT NOT NULL)"
  in
  match Exact.check cat (parse "SELECT ALL T.S FROM T WHERE T.F = T.I") with
  | Exact.Duplicable _ -> ()
  | Exact.Unique -> Alcotest.fail "INT = FLOAT: claimed Unique"
  | Exact.Unsupported reason -> Alcotest.fail ("unsupported: " ^ reason)

let test_exact_range_predicates () =
  (* exact checker handles ranges that Algorithm 1 gives up on: a range
     containing a single value pins the key *)
  Alcotest.(check bool) "singleton range unique" true
    (exact_unique "SELECT ALL P.PNO FROM PARTS P WHERE P.SNO BETWEEN 7 AND 7");
  Alcotest.(check bool) "wide range duplicable" false
    (exact_unique "SELECT ALL P.PNO FROM PARTS P WHERE P.SNO BETWEEN 7 AND 9")

let test_exact_too_large () =
  (* guard must trip on tiny budgets instead of hanging *)
  match Exact.check ~max_cells:10 catalog (parse example1) with
  | exception Exact.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large"

(* ---- cross-validation properties ---- *)

(* Random single/two-table queries over a small ad-hoc schema. *)
let small_catalog =
  List.fold_left Catalog.add_ddl Catalog.empty
    [ "CREATE TABLE R (A INT NOT NULL, B INT, C INT, PRIMARY KEY (A))";
      "CREATE TABLE S (D INT NOT NULL, E INT, PRIMARY KEY (D))" ]

let random_query_gen : Sql.Ast.query_spec QCheck2.Gen.t =
  let open QCheck2.Gen in
  let cols_r = [ "R.A"; "R.B"; "R.C" ] and cols_s = [ "S.D"; "S.E" ] in
  let* two_tables = bool in
  let cols = if two_tables then cols_r @ cols_s else cols_r in
  let* proj =
    map2
      (fun picks fallback ->
        let chosen = List.filteri (fun i _ -> List.nth picks i) cols in
        if chosen = [] then [ List.nth cols (fallback mod List.length cols) ]
        else chosen)
      (list_repeat (List.length cols) bool)
      nat
  in
  let eq_pred =
    let* c = oneofl cols in
    let* rhs =
      oneof
        [ map (fun i -> Sql.Ast.Const (Value.Int i)) (int_range 0 2);
          map (fun c2 -> Sql.Ast.Col (Schema.Attr.of_string c2)) (oneofl cols) ]
    in
    return (Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Col (Schema.Attr.of_string c), rhs))
  in
  let* preds = list_size (int_range 0 3) eq_pred in
  return
    (Sql.Ast.plain_spec ~distinct:Sql.Ast.Distinct
       ~select:
         (Sql.Ast.Cols
            (List.map (fun c -> Sql.Ast.Col (Schema.Attr.of_string c)) proj))
       ~from:
         (if two_tables then
            [ { Sql.Ast.table = "R"; corr = None };
              { Sql.Ast.table = "S"; corr = None } ]
          else [ { Sql.Ast.table = "R"; corr = None } ])
       ~where:(Sql.Ast.conj preds) ())

let print_spec q = Sql.Pretty.query_spec q

(* Soundness: whenever Algorithm 1 (or the FD analyzer) says YES, the exact
   checker finds no duplicate-producing instance. *)
let prop_algorithm1_sound_vs_exact =
  QCheck2.Test.make ~name:"Algorithm 1 sound w.r.t. exact checker" ~count:150
    ~print:print_spec random_query_gen (fun q ->
      (not (A1.distinct_is_redundant small_catalog q))
      || Exact.check small_catalog q = Exact.Unique)

let prop_fd_sound_vs_exact =
  QCheck2.Test.make ~name:"FD analyzer sound w.r.t. exact checker" ~count:150
    ~print:print_spec random_query_gen (fun q ->
      (not (FdA.distinct_is_redundant small_catalog q))
      || Exact.check small_catalog q = Exact.Unique)

(* Algorithm 1 never detects a case the FD analyzer misses. *)
let prop_fd_dominates_algorithm1 =
  QCheck2.Test.make ~name:"FD analyzer dominates Algorithm 1" ~count:300
    ~print:print_spec random_query_gen (fun q ->
      (not (A1.distinct_is_redundant small_catalog q))
      || FdA.distinct_is_redundant small_catalog q)

(* Adding an equality conjunct only grows Algorithm 1's closure: a YES can
   never flip to NO. *)
let prop_algorithm1_monotone =
  QCheck2.Test.make ~name:"Algorithm 1 monotone under added equalities"
    ~count:300 ~print:print_spec random_query_gen (fun q ->
      let strengthened =
        {
          q with
          Sql.Ast.where =
            Sql.Ast.And
              ( q.Sql.Ast.where,
                Sql.Ast.Cmp
                  ( Sql.Ast.Eq,
                    Sql.Ast.Col (Schema.Attr.of_string "R.C"),
                    Sql.Ast.Const (Value.Int 1) ) );
        }
      in
      (not (A1.distinct_is_redundant small_catalog q))
      || A1.distinct_is_redundant small_catalog strengthened)

(* The paper-strict mode only ever says NO more often. *)
let prop_paper_strict_is_weaker =
  QCheck2.Test.make ~name:"paper-strict answers are a subset of default"
    ~count:300 ~print:print_spec random_query_gen (fun q ->
      (not (A1.distinct_is_redundant ~paper_strict:true small_catalog q))
      || A1.distinct_is_redundant small_catalog q)

(* Soundness against the engine: if the analysis says YES then evaluating
   with ALL equals evaluating with DISTINCT on a random generated database. *)
(* ---- the normalization clause budget (sound MAYBE) ---- *)

let test_budget_maybe () =
  (* a nested OR-of-ANDs whose CNF needs 2^14 clauses: Algorithm 1 must
     give up soundly, leave a norm.budget node, and keep the DISTINCT *)
  let rng = Random.State.make [| 42 |] in
  let q = Difftest.Query_gen.nested_or_spec ~rng ~width:14 catalog in
  let trace = Trace.make () in
  let r = A1.analyze ~trace catalog q in
  Alcotest.(check bool) "answers MAYBE" true (r.A1.answer = A1.Maybe);
  let rec has_budget (n : Trace.node) =
    n.Trace.rule = "norm.budget" || List.exists has_budget n.Trace.children
  in
  Alcotest.(check bool) "norm.budget node in the trace" true
    (List.exists has_budget (Trace.nodes trace));
  Alcotest.(check bool) "MAYBE keeps the DISTINCT" false
    (A1.distinct_is_redundant catalog q)

let test_budget_knob () =
  (* Example 1's CNF has two clauses: a budget of 1 forces the give-up
     path on a query the default budget answers YES *)
  let q = parse example1 in
  let r = A1.analyze ~budget:1 catalog q in
  Alcotest.(check bool) "budget 1 gives up" true (r.A1.answer = A1.Maybe);
  Alcotest.(check bool) "default budget still answers YES" true
    (A1.distinct_is_redundant catalog q)

let test_nested_or_generator_blows_budget () =
  (* the generator's atoms are pairwise distinct by construction, so the
     budget path fires on every generated catalog, not just the paper's *)
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 10 do
    let ddl = Difftest.Schema_gen.generate ~rng in
    let cat = Difftest.Schema_gen.catalog_of_ddl ddl in
    let q = Difftest.Query_gen.nested_or_spec ~rng cat in
    let r = A1.analyze cat q in
    Alcotest.(check bool) "MAYBE on every nested-OR case" true
      (r.A1.answer = A1.Maybe)
  done

let db_for_props =
  lazy (Workload.Generator.supplier_db ~suppliers:30 ~parts_per_supplier:4 ())

let queries_for_engine_check =
  [ example1; example2; example4; example6;
    "SELECT DISTINCT P.PNO, P.SNO FROM PARTS P";
    "SELECT DISTINCT P.COLOR FROM PARTS P";
    "SELECT DISTINCT S.SCITY FROM SUPPLIER S";
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO" ]

let test_analysis_sound_on_engine () =
  let db = Lazy.force db_for_props in
  let hosts = [ ("SUPPLIER_NO", Value.Int 3); ("SUPPLIER_NAME", Value.String "SUPPLIER-1") ] in
  List.iter
    (fun q ->
      let spec = parse q in
      let dist = Engine.Exec.run_query db ~hosts (Sql.Ast.Spec spec) in
      let all =
        Engine.Exec.run_query db ~hosts
          (Sql.Ast.Spec { spec with Sql.Ast.distinct = Sql.Ast.All })
      in
      if A1.distinct_is_redundant catalog spec then
        Alcotest.(check bool)
          (Printf.sprintf "ALL = DISTINCT for %s" q)
          true
          (Engine.Relation.equal_bags dist all))
    queries_for_engine_check

(* And completeness evidence on this sample: when analysis says NO, the
   exact checker agrees there is a duplicate-producing instance (these
   queries use only equality predicates, where Algorithm 1 is expected to
   be precise). *)
let test_exact_agrees_on_negatives () =
  List.iter
    (fun q ->
      let spec = parse q in
      if not (FdA.distinct_is_redundant catalog spec) then
        Alcotest.(check bool)
          (Printf.sprintf "duplicable: %s" q)
          false (exact_unique q))
    queries_for_engine_check

let () =
  Alcotest.run "uniqueness"
    [
      ( "algorithm1",
        [
          Alcotest.test_case "example 1" `Quick test_example1;
          Alcotest.test_case "example 2" `Quick test_example2;
          Alcotest.test_case "example 4" `Quick test_example4;
          Alcotest.test_case "example 6" `Quick test_example6;
          Alcotest.test_case "example 5 trace" `Quick test_example5_trace;
          Alcotest.test_case "trace shows deletions" `Quick
            test_trace_shows_deletions;
          Alcotest.test_case "no predicate, full key" `Quick
            test_no_predicate_full_key;
          Alcotest.test_case "partial composite key" `Quick
            test_composite_key_partial;
          Alcotest.test_case "key via constant" `Quick test_key_via_constant;
          Alcotest.test_case "key via transitivity" `Quick
            test_key_via_transitivity;
          Alcotest.test_case "disjunction rejected" `Quick
            test_disjunction_rejected;
          Alcotest.test_case "inequality rejected" `Quick
            test_inequality_rejected;
          Alcotest.test_case "unsatisfiable predicate" `Quick
            test_unsatisfiable_predicate;
          Alcotest.test_case "UNIQUE candidate key" `Quick
            test_candidate_key_unique_clause;
          Alcotest.test_case "three tables" `Quick test_three_tables;
          Alcotest.test_case "three tables, one unkeyed" `Quick
            test_three_tables_missing_one;
          Alcotest.test_case "budget blowout answers MAYBE" `Quick
            test_budget_maybe;
          Alcotest.test_case "budget knob" `Quick test_budget_knob;
          Alcotest.test_case "nested-OR generator blows the budget" `Quick
            test_nested_or_generator_blows_budget;
        ] );
      ( "fd-analysis",
        [
          Alcotest.test_case "agrees on examples" `Quick
            test_fd_agrees_on_examples;
          Alcotest.test_case "detects key-dependency chains" `Quick
            test_fd_beats_algorithm1;
        ] );
      ( "exact",
        [
          Alcotest.test_case "examples" `Quick test_exact_examples;
          Alcotest.test_case "counterexample is concrete" `Quick
            test_exact_counterexample_is_concrete;
          Alcotest.test_case "non-key duplicates" `Quick
            test_exact_detects_nonkey_duplicates;
          Alcotest.test_case "range predicates" `Quick
            test_exact_range_predicates;
          Alcotest.test_case "budget guard" `Quick test_exact_too_large;
        ] );
      ( "cross-validation",
        Alcotest.test_case "analysis sound on engine" `Quick
          test_analysis_sound_on_engine
        :: Alcotest.test_case "exact agrees on negatives" `Quick
             test_exact_agrees_on_negatives
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_algorithm1_sound_vs_exact; prop_fd_sound_vs_exact;
               prop_fd_dominates_algorithm1; prop_algorithm1_monotone;
               prop_paper_strict_is_weaker ] );
    ]
