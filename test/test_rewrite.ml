(* Tests for the rewrite suite (paper section 5 and 6): the paper's example
   transformations must apply on the expected grounds, and every applied
   rewrite must be bag-equivalent to the original query when executed. *)

module R = Uniqueness.Rewrite
module Value = Sqlval.Value
open Sql.Ast

let catalog = Workload.Paper_schema.catalog ()
let parse = Sql.Parser.parse_query
let parse_spec = Sql.Parser.parse_query_spec

let db () = Workload.Generator.supplier_db ~suppliers:40 ~parts_per_supplier:6 ()

let hosts =
  [ ("SUPPLIER_NO", Value.Int 3); ("SUPPLIER_NAME", Value.String "SUPPLIER-1");
    ("PART_NO", Value.Int 2); ("PARTNO", Value.Int 2) ]

let check_equivalent msg original rewritten =
  let d = db () in
  let a = Engine.Exec.run_query d ~hosts original in
  let b = Engine.Exec.run_query d ~hosts rewritten in
  Alcotest.(check bool) msg true (Engine.Relation.equal_bags a b)

(* ---- 5.1 distinct removal ---- *)

let test_distinct_removal_example1 () =
  let q =
    parse
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
       S.SNO = P.SNO AND P.COLOR = 'RED'"
  in
  let o = R.remove_redundant_distinct catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s -> Alcotest.(check bool) "now ALL" true (s.distinct = All)
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" q o.R.result

let test_distinct_removal_not_applied () =
  let q =
    parse
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
       WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"
  in
  let o = R.remove_redundant_distinct catalog q in
  Alcotest.(check bool) "not applied" false o.R.applied;
  Alcotest.(check bool) "unchanged" true (o.R.result = q)

let test_distinct_removal_fd_analyzer () =
  (* the FD analyzer catches the OEM_PNO key-dependency case *)
  let q =
    parse
      "SELECT DISTINCT P.OEM_PNO, S.SNAME FROM SUPPLIER S, PARTS P WHERE \
       S.SNO = P.SNO"
  in
  let o1 = R.remove_redundant_distinct ~analyzer:R.Algorithm1 catalog q in
  let o2 = R.remove_redundant_distinct ~analyzer:R.Fd_closure catalog q in
  Alcotest.(check bool) "Algorithm1 misses" false o1.R.applied;
  Alcotest.(check bool) "FD closure applies" true o2.R.applied;
  check_equivalent "equivalent" q o2.R.result

(* ---- 5.2 subquery to join ---- *)

let example7 =
  "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = :SUPPLIER_NAME \
   AND EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART_NO)"

let test_example7_theorem2 () =
  let q = parse_spec example7 in
  let o = R.subquery_to_join catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     Alcotest.(check bool) "stays ALL" true (s.distinct = All);
     Alcotest.(check int) "two tables" 2 (List.length s.from);
     Alcotest.(check bool) "no EXISTS left" true
       (List.for_all
          (function Exists _ -> false | _ -> true)
          (conjuncts s.where))
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" (Spec q) o.R.result

let example8 =
  "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM \
   PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"

let test_example8_corollary1 () =
  let q = parse_spec example8 in
  let o = R.subquery_to_join catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     (* many red parts per supplier: the join must become DISTINCT *)
     Alcotest.(check bool) "made DISTINCT" true (s.distinct = Distinct)
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" (Spec q) o.R.result

let test_subquery_not_convertible () =
  (* outer not duplicate-free (SNAME only), subquery not key-pinned *)
  let q =
    parse_spec
      "SELECT ALL S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM PARTS \
       P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"
  in
  let o = R.subquery_to_join catalog q in
  Alcotest.(check bool) "not applied" false o.R.applied

let test_subquery_distinct_always_convertible () =
  let q =
    parse_spec
      "SELECT DISTINCT S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM \
       PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"
  in
  let o = R.subquery_to_join catalog q in
  Alcotest.(check bool) "applied (DISTINCT projection)" true o.R.applied;
  check_equivalent "equivalent" (Spec q) o.R.result

let test_subquery_name_clash () =
  (* inner block reuses the outer correlation name P *)
  let q =
    parse_spec
      "SELECT ALL P.SNO, P.PNO FROM PARTS P WHERE EXISTS (SELECT * FROM \
       PARTS P WHERE P.OEM_PNO = 1)"
  in
  let o = R.subquery_to_join catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     let names = List.map from_name s.from in
     Alcotest.(check int) "two distinct names" 2
       (List.length (List.sort_uniq String.compare names))
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" (Spec q) o.R.result

let test_nested_exists_via_apply_all () =
  (* two EXISTS conjuncts unnest one at a time *)
  let q =
    parse
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS (SELECT * FROM PARTS P \
       WHERE P.SNO = S.SNO AND P.PNO = 1) AND EXISTS (SELECT * FROM AGENTS \
       A WHERE A.SNO = S.SNO AND A.ANO = 1)"
  in
  let q', outcomes = R.apply_all catalog q in
  Alcotest.(check bool) "some rewrite applied" true (outcomes <> []);
  (match q' with
   | Spec s -> Alcotest.(check int) "three tables" 3 (List.length s.from)
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" q q'

(* ---- section 6: join to subquery ---- *)

let example10 =
  "SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S, \
   PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PARTNO"

let test_example10_join_to_subquery () =
  let q = parse_spec example10 in
  let o = R.join_to_subquery catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     Alcotest.(check int) "one outer table" 1 (List.length s.from);
     Alcotest.(check bool) "has EXISTS" true
       (List.exists
          (function Exists _ -> true | _ -> false)
          (conjuncts s.where))
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" (Spec q) o.R.result

let test_join_to_subquery_needs_uniqueness () =
  (* non-key join predicate (COLOR): several parts may match, ALL blocks *)
  let q =
    parse_spec
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = \
       P.SNO AND P.COLOR = 'RED'"
  in
  let o = R.join_to_subquery catalog q in
  Alcotest.(check bool) "not applied for ALL" false o.R.applied;
  let qd = { q with distinct = Distinct } in
  let od = R.join_to_subquery catalog qd in
  Alcotest.(check bool) "applied for DISTINCT" true od.R.applied;
  check_equivalent "equivalent" (Spec qd) od.R.result

(* The moved table leaves the FROM list, the ORDER BY stays: its keys are
   select items, so they name outer tables, qualified like the
   projection. *)
let test_join_to_subquery_keeps_order_by () =
  let q =
    parse_spec
      "SELECT DISTINCT COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO \
       ORDER BY COLOR"
  in
  let o = R.join_to_subquery catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     Alcotest.(check bool) "ORDER BY kept, qualified" true
       (s.order_by = [ Col (Schema.Attr.make ~rel:"P" ~name:"COLOR") ])
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" (Spec q) o.R.result;
  let rows = (Engine.Exec.run_query (db ()) ~hosts o.R.result).Engine.Relation.rows in
  Alcotest.(check bool) "sorted on the key" true
    (rows <> []
     && List.for_all2
          (fun a b -> Value.compare_total a.(0) b.(0) <= 0)
          (List.filteri (fun i _ -> i < List.length rows - 1) rows)
          (List.tl rows))

(* ---- 5.3 intersect / except ---- *)

let example9 =
  "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' INTERSECT \
   SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'"

let test_example9_intersect_to_exists () =
  let q = parse example9 in
  let o = R.intersect_to_exists catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     let sub =
       List.find_map
         (function Exists sub -> Some sub | _ -> None)
         (conjuncts s.where)
     in
     (match sub with
      | None -> Alcotest.fail "no EXISTS"
      | Some sub ->
        (* both SNO columns are key components (non-nullable): footnote 1
           says the null test is unnecessary, a plain equijoin suffices *)
        Alcotest.(check bool) "plain equality correlation" true
          (List.exists
             (function
               | Cmp (Eq, Col _, Col _) -> true
               | _ -> false)
             (conjuncts sub.where)))
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" q o.R.result

let test_intersect_nullable_needs_null_safe () =
  (* OEM_PNO is nullable: correlation must be the null-safe form *)
  let q =
    parse
      "SELECT P.OEM_PNO FROM PARTS P INTERSECT SELECT P2.OEM_PNO FROM PARTS P2"
  in
  let o = R.intersect_to_exists catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     let sub =
       List.find_map
         (function Exists sub -> Some sub | _ -> None)
         (conjuncts s.where)
     in
     (match sub with
      | None -> Alcotest.fail "no EXISTS"
      | Some sub ->
        Alcotest.(check bool) "null-safe correlation" true
          (List.exists
             (function
               | Or (And (Is_null _, Is_null _), Cmp (Eq, _, _)) -> true
               | _ -> false)
             (conjuncts sub.where)))
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" q o.R.result

let test_intersect_right_unique_swaps () =
  (* left operand (COLOR-filtered SNO) is not duplicate-free, right (key of
     SUPPLIER) is: Corollary 2 swaps the operands *)
  let q =
    parse
      "SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'RED' INTERSECT ALL SELECT \
       S.SNO FROM SUPPLIER S"
  in
  let o = R.intersect_to_exists catalog q in
  Alcotest.(check bool) "applied via swap" true o.R.applied;
  check_equivalent "equivalent" q o.R.result

let test_intersect_neither_unique () =
  let q =
    parse
      "SELECT P.COLOR FROM PARTS P INTERSECT SELECT P2.PNAME FROM PARTS P2"
  in
  let o = R.intersect_to_exists catalog q in
  Alcotest.(check bool) "not applied" false o.R.applied

let test_except_to_not_exists () =
  let q =
    parse
      "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' EXCEPT SELECT \
       A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'"
  in
  let o = R.except_to_not_exists catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     Alcotest.(check bool) "NOT EXISTS present" true
       (List.exists
          (function Not (Exists _) -> true | _ -> false)
          (conjuncts s.where))
   | Setop _ -> Alcotest.fail "shape");
  check_equivalent "equivalent" q o.R.result

let test_except_all_left_unique () =
  let q =
    parse
      "SELECT S.SNO FROM SUPPLIER S EXCEPT ALL SELECT A.SNO FROM AGENTS A \
       WHERE A.ACITY = 'Hull'"
  in
  let o = R.except_to_not_exists catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  check_equivalent "equivalent" q o.R.result

let test_except_right_unique_does_not_swap () =
  (* EXCEPT is not commutative: a duplicate-free right operand is useless *)
  let q =
    parse
      "SELECT P.COLOR FROM PARTS P EXCEPT SELECT S.SNAME FROM SUPPLIER S \
       WHERE S.SNO = 1"
  in
  let o = R.except_to_not_exists catalog q in
  Alcotest.(check bool) "not applied" false o.R.applied

(* ---- equivalence battery ---- *)

let test_apply_all_battery () =
  List.iter
    (fun qs ->
      let q = parse qs in
      let q', _ = R.apply_all catalog q in
      check_equivalent ("apply_all: " ^ qs) q q')
    [ example7; example8; example9;
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
       S.SNO = P.SNO AND P.COLOR = 'RED'";
      "SELECT S.SNO FROM SUPPLIER S EXCEPT SELECT A.SNO FROM AGENTS A";
      "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE EXISTS (SELECT * FROM \
       PARTS P WHERE P.SNO = S.SNO)" ]

(* Property: apply_all preserves bag semantics on random projection/equality
   queries over random valid instances of the small two-table schema. *)
let small_cat = Workload.Randquery.small_catalog

let small_instance_gen : (Engine.Database.t -> unit) QCheck2.Gen.t =
  let open QCheck2.Gen in
  (* R (A pk, B unique, C); S (D pk, E) — keys kept distinct by index *)
  let* n_r = int_range 0 8 in
  let* n_s = int_range 0 8 in
  let* cs = list_repeat n_r (oneof [ return Value.Null; map (fun i -> Value.Int i) (int_range 0 2) ]) in
  let* es = list_repeat n_s (oneof [ return Value.Null; map (fun i -> Value.Int i) (int_range 0 2) ]) in
  let* b_nulls = list_repeat n_r bool in
  return (fun db ->
      Engine.Database.load db "R"
        (List.mapi
           (fun i (c, b_null) ->
             [| Value.Int i; (if b_null && i = 0 then Value.Null else Value.Int (100 + i)); c |])
           (List.combine cs b_nulls));
      Engine.Database.load db "S"
        (List.mapi (fun i e -> [| Value.Int i; e |]) es))

let prop_apply_all_preserves_bags =
  QCheck2.Test.make ~name:"apply_all preserves bag semantics" ~count:200
    ~print:(fun (q, _) -> Sql.Pretty.query_spec q)
    QCheck2.Gen.(
      pair
        (map
           (fun seed ->
             List.hd
               (Workload.Randquery.generate
                  { Workload.Randquery.default with seed; count = 1 }))
           (int_range 0 100_000))
        small_instance_gen)
    (fun (spec, load) ->
      let db = Engine.Database.create small_cat in
      load db;
      if Engine.Database.validate db <> [] then true (* skip invalid draws *)
      else begin
        let q = Spec spec in
        let q', _ = R.apply_all small_cat q in
        let a = Engine.Exec.run_query db ~hosts:[] q in
        let b = Engine.Exec.run_query db ~hosts:[] q' in
        Engine.Relation.equal_bags a b
      end)

(* Null-safe correlation must matter: an instance with NULL keys on both
   sides must intersect correctly after the rewrite. *)
let test_null_safe_correlation_execution () =
  let cat =
    List.fold_left Catalog.add_ddl Catalog.empty
      [ "CREATE TABLE L (K INT NOT NULL, U INT, PRIMARY KEY (K), UNIQUE (U))";
        "CREATE TABLE M (K INT NOT NULL, U INT, PRIMARY KEY (K), UNIQUE (U))" ]
  in
  let d = Engine.Database.create cat in
  Engine.Database.load d "L"
    [ [| Value.Int 1; Value.Null |]; [| Value.Int 2; Value.Int 7 |] ];
  Engine.Database.load d "M"
    [ [| Value.Int 1; Value.Null |]; [| Value.Int 2; Value.Int 8 |] ];
  let q = parse "SELECT L.U FROM L INTERSECT SELECT M.U FROM M" in
  let o = R.intersect_to_exists cat q in
  Alcotest.(check bool) "applied" true o.R.applied;
  let a = Engine.Exec.run_query d ~hosts:[] q in
  let b = Engine.Exec.run_query d ~hosts:[] o.R.result in
  (* INTERSECT equates the NULLs: exactly the NULL row intersects *)
  Alcotest.(check int) "null row intersects" 1 (Engine.Relation.cardinality a);
  Alcotest.(check bool) "rewrite preserves it" true
    (Engine.Relation.equal_bags a b)

let () =
  Alcotest.run "rewrite"
    [
      ( "distinct-removal",
        [
          Alcotest.test_case "example 1 applies" `Quick
            test_distinct_removal_example1;
          Alcotest.test_case "example 2 does not" `Quick
            test_distinct_removal_not_applied;
          Alcotest.test_case "FD analyzer option" `Quick
            test_distinct_removal_fd_analyzer;
        ] );
      ( "subquery-to-join",
        [
          Alcotest.test_case "example 7 (Theorem 2)" `Quick
            test_example7_theorem2;
          Alcotest.test_case "example 8 (Corollary 1)" `Quick
            test_example8_corollary1;
          Alcotest.test_case "not convertible" `Quick
            test_subquery_not_convertible;
          Alcotest.test_case "DISTINCT always converts" `Quick
            test_subquery_distinct_always_convertible;
          Alcotest.test_case "correlation name clash" `Quick
            test_subquery_name_clash;
          Alcotest.test_case "nested EXISTS via apply_all" `Quick
            test_nested_exists_via_apply_all;
        ] );
      ( "join-to-subquery",
        [
          Alcotest.test_case "example 10 shape" `Quick
            test_example10_join_to_subquery;
          Alcotest.test_case "requires uniqueness for ALL" `Quick
            test_join_to_subquery_needs_uniqueness;
          Alcotest.test_case "keeps ORDER BY" `Quick
            test_join_to_subquery_keeps_order_by;
        ] );
      ( "setops",
        [
          Alcotest.test_case "example 9 (Theorem 3)" `Quick
            test_example9_intersect_to_exists;
          Alcotest.test_case "nullable needs null-safe equality" `Quick
            test_intersect_nullable_needs_null_safe;
          Alcotest.test_case "right-unique swaps (Corollary 2)" `Quick
            test_intersect_right_unique_swaps;
          Alcotest.test_case "neither unique" `Quick test_intersect_neither_unique;
          Alcotest.test_case "EXCEPT to NOT EXISTS" `Quick
            test_except_to_not_exists;
          Alcotest.test_case "EXCEPT ALL left-unique" `Quick
            test_except_all_left_unique;
          Alcotest.test_case "EXCEPT does not swap" `Quick
            test_except_right_unique_does_not_swap;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "apply_all battery" `Quick test_apply_all_battery;
          Alcotest.test_case "null-safe correlation executes" `Quick
            test_null_safe_correlation_execution;
          QCheck_alcotest.to_alcotest prop_apply_all_preserves_bags;
        ] );
    ]
