(* Execution engine tests: multiset semantics, 3VL selection, DISTINCT,
   set operations, correlated EXISTS, and constraint validation. *)

module Value = Sqlval.Value
module DB = Engine.Database
module Exec = Engine.Exec
module Relation = Engine.Relation

let v_int i = Value.Int i
let v_str s = Value.String s

(* A tiny two-table database used by most cases. *)
let small_db () =
  let cat =
    List.fold_left Catalog.add_ddl Catalog.empty
      [ "CREATE TABLE R (A INT NOT NULL, B VARCHAR(10), PRIMARY KEY (A))";
        "CREATE TABLE S (C INT NOT NULL, D INT, PRIMARY KEY (C))" ]
  in
  let db = DB.create cat in
  DB.load db "R"
    [ [| v_int 1; v_str "x" |]; [| v_int 2; v_str "y" |];
      [| v_int 3; v_str "x" |] ];
  DB.load db "S"
    [ [| v_int 1; v_int 10 |]; [| v_int 2; Value.Null |];
      [| v_int 4; v_int 10 |] ];
  db

let run ?config db s = Exec.run_sql ?config db ~hosts:[] s
let run_h db hosts s = Exec.run_sql db ~hosts s

let rows r = List.map Array.to_list r.Relation.rows

let sorted_rows r =
  List.sort compare (rows r)

let check_rows msg expected r =
  Alcotest.(check (list (list (Alcotest.testable Value.pp Value.equal_null))))
    msg
    (List.sort compare expected)
    (sorted_rows r)

let test_scan_project () =
  let db = small_db () in
  let r = run db "SELECT R.A FROM R" in
  check_rows "all A values" [ [ v_int 1 ]; [ v_int 2 ]; [ v_int 3 ] ] r

let test_select_3vl () =
  let db = small_db () in
  (* S.D = 10 is unknown for the NULL row: it must NOT qualify *)
  let r = run db "SELECT S.C FROM S WHERE S.D = 10" in
  check_rows "nulls do not qualify" [ [ v_int 1 ]; [ v_int 4 ] ] r;
  (* ... and NOT (D = 10) does not return it either *)
  let r = run db "SELECT S.C FROM S WHERE NOT S.D = 10" in
  check_rows "negation keeps unknown out" [] r;
  let r = run db "SELECT S.C FROM S WHERE S.D IS NULL" in
  check_rows "is null" [ [ v_int 2 ] ] r

let test_product_join () =
  let db = small_db () in
  let r = run db "SELECT R.A, S.D FROM R, S WHERE R.A = S.C" in
  check_rows "join" [ [ v_int 1; v_int 10 ]; [ v_int 2; Value.Null ] ] r

let test_projection_keeps_duplicates () =
  let db = small_db () in
  let r = run db "SELECT ALL R.B FROM R" in
  Alcotest.(check int) "bag projection" 3 (Relation.cardinality r);
  Alcotest.(check int) "two distinct" 2 (Relation.distinct_count r)

let test_distinct () =
  let db = small_db () in
  let r = run db "SELECT DISTINCT R.B FROM R" in
  check_rows "distinct" [ [ v_str "x" ]; [ v_str "y" ] ] r

let test_distinct_null_equivalence () =
  (* DISTINCT treats two nulls as equal (null-comparison semantics) *)
  let cat = Catalog.add_ddl Catalog.empty
      "CREATE TABLE T (K INT NOT NULL, V INT, PRIMARY KEY (K))" in
  let db = DB.create cat in
  DB.load db "T" [ [| v_int 1; Value.Null |]; [| v_int 2; Value.Null |] ];
  let r = run db "SELECT DISTINCT T.V FROM T" in
  Alcotest.(check int) "one null row" 1 (Relation.cardinality r)

let test_hash_distinct_agrees () =
  let db = small_db () in
  let q = "SELECT DISTINCT R.B FROM R" in
  let cfg_hash = { (Exec.default_config ()) with Exec.distinct_impl = Exec.Stream_hash } in
  let a = run db q in
  let b = run ~config:cfg_hash db q in
  Alcotest.(check bool) "same bag" true (Relation.equal_bags a b)

let test_host_variables () =
  let db = small_db () in
  let r = run_h db [ ("X", v_int 2) ] "SELECT R.B FROM R WHERE R.A = :X" in
  check_rows "host bound" [ [ v_str "y" ] ] r

let test_exists_correlated () =
  let db = small_db () in
  let r =
    run db
      "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.C = R.A)"
  in
  check_rows "correlated exists" [ [ v_int 1 ]; [ v_int 2 ] ] r

let test_not_exists () =
  let db = small_db () in
  let r =
    run db
      "SELECT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.C = R.A)"
  in
  check_rows "not exists" [ [ v_int 3 ] ] r

let test_intersect_distinct_and_all () =
  let cat = List.fold_left Catalog.add_ddl Catalog.empty
      [ "CREATE TABLE X (K INT NOT NULL, A INT, PRIMARY KEY (K))";
        "CREATE TABLE Y (K INT NOT NULL, A INT, PRIMARY KEY (K))" ] in
  let db = DB.create cat in
  (* X projects A = [1;1;1;2]; Y projects A = [1;1;3] *)
  DB.load db "X"
    [ [| v_int 1; v_int 1 |]; [| v_int 2; v_int 1 |]; [| v_int 3; v_int 1 |];
      [| v_int 4; v_int 2 |] ];
  DB.load db "Y"
    [ [| v_int 1; v_int 1 |]; [| v_int 2; v_int 1 |]; [| v_int 3; v_int 3 |] ];
  let r = run db "SELECT X.A FROM X INTERSECT SELECT Y.A FROM Y" in
  check_rows "intersect distinct" [ [ v_int 1 ] ] r;
  (* INTERSECT ALL: min(3, 2) occurrences of 1 *)
  let r = run db "SELECT X.A FROM X INTERSECT ALL SELECT Y.A FROM Y" in
  check_rows "intersect all" [ [ v_int 1 ]; [ v_int 1 ] ] r

let test_except_distinct_and_all () =
  let cat = List.fold_left Catalog.add_ddl Catalog.empty
      [ "CREATE TABLE X (K INT NOT NULL, A INT, PRIMARY KEY (K))";
        "CREATE TABLE Y (K INT NOT NULL, A INT, PRIMARY KEY (K))" ] in
  let db = DB.create cat in
  (* X.A = [1;1;1;2]; Y.A = [1;3] *)
  DB.load db "X"
    [ [| v_int 1; v_int 1 |]; [| v_int 2; v_int 1 |]; [| v_int 3; v_int 1 |];
      [| v_int 4; v_int 2 |] ];
  DB.load db "Y" [ [| v_int 1; v_int 1 |]; [| v_int 2; v_int 3 |] ];
  let r = run db "SELECT X.A FROM X EXCEPT SELECT Y.A FROM Y" in
  check_rows "except distinct" [ [ v_int 2 ] ] r;
  (* EXCEPT ALL: max(3 - 1, 0) ones and one 2 *)
  let r = run db "SELECT X.A FROM X EXCEPT ALL SELECT Y.A FROM Y" in
  check_rows "except all" [ [ v_int 1 ]; [ v_int 1 ]; [ v_int 2 ] ] r

let test_setop_null_handling () =
  (* INTERSECT equates NULLs (unlike WHERE-clause '=') *)
  let cat = List.fold_left Catalog.add_ddl Catalog.empty
      [ "CREATE TABLE X (K INT NOT NULL, A INT, PRIMARY KEY (K))";
        "CREATE TABLE Y (K INT NOT NULL, A INT, PRIMARY KEY (K))" ] in
  let db = DB.create cat in
  DB.load db "X" [ [| v_int 1; Value.Null |] ];
  DB.load db "Y" [ [| v_int 1; Value.Null |] ];
  let r = run db "SELECT X.A FROM X INTERSECT SELECT Y.A FROM Y" in
  Alcotest.(check int) "null matches null" 1 (Relation.cardinality r)

let test_hash_join_agrees_with_naive () =
  let db = Workload.Generator.supplier_db ~suppliers:30 ~parts_per_supplier:4 () in
  let queries =
    [ "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
      "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND \
       P.COLOR = 'RED'";
      "SELECT DISTINCT S.SNO, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS \
       A WHERE S.SNO = P.SNO AND A.SNO = S.SNO";
      (* no equi-join at all: pure product with a range filter *)
      "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A WHERE S.SNO < A.SNO";
      (* join + correlated EXISTS residual *)
      "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND EXISTS \
       (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO)" ]
  in
  List.iter
    (fun q ->
      let naive =
        { (Exec.default_config ()) with Exec.join_impl = Exec.Nested_join }
      in
      let a = run db q in
      let b = run ~config:naive db q in
      Alcotest.(check bool) ("hash = naive: " ^ q) true (Relation.equal_bags a b))
    queries

let test_indexed_exists_agrees () =
  let db = Workload.Generator.supplier_db ~suppliers:30 ~parts_per_supplier:4 () in
  let queries =
    [ "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS (SELECT * FROM PARTS P \
       WHERE P.SNO = S.SNO AND P.COLOR = 'RED')";
      "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS (SELECT * FROM AGENTS \
       A WHERE A.SNO = S.SNO AND A.ACITY = 'Hull')";
      (* no equi-correlation: must fall back to the nested loop *)
      "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS (SELECT * FROM PARTS P \
       WHERE P.SNO < S.SNO)";
      (* correlation on a nullable column *)
      "SELECT P.SNO, P.PNO FROM PARTS P WHERE EXISTS (SELECT * FROM PARTS \
       P2 WHERE P2.OEM_PNO = P.OEM_PNO AND P2.COLOR = 'RED')" ]
  in
  List.iter
    (fun q ->
      let indexed =
        { (Exec.default_config ()) with Exec.exists_impl = Exec.Indexed_exists }
      in
      let a = run db q in
      let b = run ~config:indexed db q in
      Alcotest.(check bool) ("indexed = naive: " ^ q) true
        (Relation.equal_bags a b))
    queries

let test_hash_join_null_keys () =
  (* equi-join keys that are NULL must not match (WHERE-clause equality) *)
  let cat =
    List.fold_left Catalog.add_ddl Catalog.empty
      [ "CREATE TABLE X (K INT NOT NULL, J INT, PRIMARY KEY (K))";
        "CREATE TABLE Y (K INT NOT NULL, J INT, PRIMARY KEY (K))" ]
  in
  let db = DB.create cat in
  DB.load db "X" [ [| v_int 1; Value.Null |]; [| v_int 2; v_int 5 |] ];
  DB.load db "Y" [ [| v_int 1; Value.Null |]; [| v_int 2; v_int 5 |] ];
  let r = run db "SELECT X.K, Y.K FROM X, Y WHERE X.J = Y.J" in
  check_rows "only the non-null pair" [ [ v_int 2; v_int 2 ] ] r

(* Hash keys are typed values, not their printed form: 1234567.0 and
   1234568.0 both print as 1.23457e+06 under %g, and Int 7654321 equals
   Float 7654321.0. *)
let float_key_db () =
  let cat =
    List.fold_left Catalog.add_ddl Catalog.empty
      [ "CREATE TABLE A (K INT NOT NULL, X FLOAT, PRIMARY KEY (K))";
        "CREATE TABLE B (K INT NOT NULL, Y FLOAT, PRIMARY KEY (K))" ]
  in
  let db = DB.create cat in
  DB.load db "A"
    [ [| v_int 1; Value.Float 1234567.0 |]; [| v_int 2; v_int 7654321 |] ];
  DB.load db "B"
    [ [| v_int 1; Value.Float 1234568.0 |];
      [| v_int 2; Value.Float 7654321.0 |] ];
  db

let test_hash_join_typed_keys () =
  let db = float_key_db () in
  let q = "SELECT A.K, B.K FROM A A, B B WHERE A.X = B.Y" in
  let nested =
    { (Exec.default_config ()) with Exec.join_impl = Exec.Nested_join }
  in
  check_rows "nested loop" [ [ v_int 2; v_int 2 ] ] (run ~config:nested db q);
  check_rows "hash join" [ [ v_int 2; v_int 2 ] ] (run db q);
  let indexed =
    { (Exec.default_config ()) with Exec.exists_impl = Exec.Indexed_exists }
  in
  let q = "SELECT A.K FROM A A WHERE EXISTS (SELECT * FROM B B WHERE B.Y = A.X)" in
  check_rows "naive EXISTS" [ [ v_int 2 ] ] (run db q);
  check_rows "indexed EXISTS" [ [ v_int 2 ] ] (run ~config:indexed db q);
  check_rows "semi-join INTERSECT" [ [ Value.Float 7654321.0 ] ]
    (run db "SELECT B.Y FROM B B INTERSECT SELECT A.X FROM A A")

let test_validate_float_key () =
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE F (X FLOAT NOT NULL, PRIMARY KEY (X))"
  in
  let db = DB.create cat in
  DB.load db "F" [ [| Value.Float 1234567.0 |]; [| Value.Float 1234568.0 |] ];
  Alcotest.(check int) "keys that print alike are distinct" 0
    (List.length (DB.validate db));
  DB.insert db "F" [| v_int 1234567 |];
  Alcotest.(check bool) "Int 1234567 duplicates Float 1234567.0" true
    (List.exists (function DB.Duplicate_key _ -> true | _ -> false)
       (DB.validate db))

let test_stats_sort_counted () =
  let db = small_db () in
  let cfg = Exec.default_config () in
  ignore (Exec.run_sql ~config:cfg db ~hosts:[] "SELECT DISTINCT R.B FROM R");
  Alcotest.(check bool) "sort performed" true (cfg.Exec.stats.Engine.Stats.sorts >= 1);
  let cfg2 = Exec.default_config () in
  ignore (Exec.run_sql ~config:cfg2 db ~hosts:[] "SELECT ALL R.B FROM R");
  Alcotest.(check int) "no sort for ALL" 0 cfg2.Exec.stats.Engine.Stats.sorts

let test_unbound_errors () =
  let db = small_db () in
  (match run db "SELECT R.A FROM R WHERE R.A = :MISSING" with
   | exception Exec.Unbound_host _ -> ()
   | _ -> Alcotest.fail "expected unbound host");
  match run db "SELECT R.A FROM R WHERE R.NOPE = 1" with
  | exception Exec.Unbound_column _ -> ()
  | _ -> Alcotest.fail "expected unbound column"

(* ---- constraint validation ---- *)

let test_validate_ok () =
  let db = small_db () in
  Alcotest.(check int) "no violations" 0 (List.length (DB.validate db))

let test_validate_duplicate_pk () =
  let db = small_db () in
  DB.insert db "R" [| v_int 1; v_str "dup" |];
  let vs = DB.validate db in
  Alcotest.(check bool) "duplicate key reported" true
    (List.exists (function DB.Duplicate_key _ -> true | _ -> false) vs)

let test_validate_null_pk () =
  let db = small_db () in
  DB.insert db "R" [| Value.Null; v_str "n" |];
  let vs = DB.validate db in
  Alcotest.(check bool) "null pk reported" true
    (List.exists (function DB.Null_in_primary_key _ -> true | _ -> false) vs)

let test_validate_check () =
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE T (A INT NOT NULL, PRIMARY KEY (A), CHECK (A BETWEEN 1 AND 9))"
  in
  let db = DB.create cat in
  DB.load db "T" [ [| v_int 5 |]; [| v_int 11 |] ];
  let vs = DB.validate db in
  Alcotest.(check int) "one check violation" 1 (List.length vs)

let test_validate_unique_nulls () =
  (* SQL2 / paper semantics: at most one NULL in a UNIQUE candidate key *)
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE T (A INT NOT NULL, U INT, PRIMARY KEY (A), UNIQUE (U))"
  in
  let db = DB.create cat in
  DB.load db "T" [ [| v_int 1; Value.Null |]; [| v_int 2; Value.Null |] ];
  let vs = DB.validate db in
  Alcotest.(check bool) "two nulls violate UNIQUE" true
    (List.exists (function DB.Duplicate_key _ -> true | _ -> false) vs)

(* ---- generated workload sanity ---- *)

let test_generator_valid () =
  let db =
    Workload.Generator.supplier_db ~suppliers:50 ~parts_per_supplier:5 ()
  in
  Alcotest.(check int) "suppliers" 50 (DB.row_count db "SUPPLIER");
  Alcotest.(check int) "parts" 250 (DB.row_count db "PARTS");
  Alcotest.(check int) "valid instance" 0 (List.length (DB.validate db))

let test_generator_scales_past_499 () =
  let db =
    Workload.Generator.supplier_db ~suppliers:1000 ~parts_per_supplier:2 ()
  in
  Alcotest.(check int) "valid at 1000 suppliers" 0 (List.length (DB.validate db))

let test_generator_deterministic () =
  let a = Workload.Generator.supplier_db ~suppliers:20 ~parts_per_supplier:3 () in
  let b = Workload.Generator.supplier_db ~suppliers:20 ~parts_per_supplier:3 () in
  Alcotest.(check bool) "same rows" true
    (Relation.equal_bags (DB.table a "SUPPLIER") (DB.table b "SUPPLIER"))

(* ---- streaming operators ---- *)

module Operator = Engine.Operator
module Stats = Engine.Stats
module Attr = Schema.Attr
module Relschema = Schema.Relschema

let attr ?(rel = "T") n = Attr.make ~rel ~name:n

let int_schema ?rel names =
  Relschema.make
    (List.map
       (fun n ->
         { Relschema.attr = attr ?rel n;
           ctype = Relschema.Tint;
           nullable = false })
       names)

let ints_of r =
  Array.to_list (Array.map (function Value.Int i -> i | _ -> -999) r)

let test_unique_path () =
  let s_ab = int_schema [ "A"; "B" ] in
  let s_a = int_schema [ "A" ] in
  let path s o = Operator.unique_path s o in
  let check msg expect got =
    Alcotest.(check (pair string (array int))) msg expect got
  in
  check "[A;B] covers {A,B}" ("sorted-unique", [| 0; 1 |])
    (path s_ab [ attr "A"; attr "B" ]);
  check "[B;A] covers {A,B}" ("sorted-unique", [| 0; 1 |])
    (path s_ab [ attr "B"; attr "A" ]);
  check "[A] covers A of {A,B}" ("prefix-unique", [| 0 |])
    (path s_ab [ attr "A" ]);
  check "[B] covers B of {A,B}" ("prefix-unique", [| 1 |])
    (path s_ab [ attr "B" ]);
  check "empty order covers nothing" ("hash-unique", [||]) (path s_a []);
  check "prefix [A] of [A;B] covers {A}" ("sorted-unique", [| 0 |])
    (path s_a [ attr "A"; attr "B" ]);
  check "foreign attr breaks the prefix" ("hash-unique", [||])
    (path s_a [ attr "Z"; attr "A" ])

let test_product_order_inherits_left () =
  let l =
    Operator.of_rows ~order:[ attr "A" ] (int_schema [ "A" ])
      [ [| v_int 1 |]; [| v_int 2 |] ]
  in
  let r =
    Operator.of_rows (int_schema ~rel:"U" [ "C" ]) [ [| v_int 7 |]; [| v_int 8 |] ]
  in
  let p = Operator.product l r in
  Alcotest.(check (list string)) "order inherited from left outer" [ "A" ]
    (List.map (fun (a : Attr.t) -> a.Attr.name) (Operator.order p));
  Alcotest.(check int) "all pairs produced" 4 (List.length (Operator.to_rows p))

let test_unique_hashes_uncovered_order () =
  let rows = [ [| v_int 1; v_int 1 |]; [| v_int 1; v_int 2 |];
               [| v_int 1; v_int 1 |]; [| v_int 2; v_int 1 |] ] in
  let run order =
    let stats = Stats.create () in
    let out =
      Operator.to_rows
        (Operator.unique ~stats
           (Operator.of_rows ~order (int_schema [ "A"; "B" ]) rows))
    in
    (List.map ints_of out, stats.Stats.dedup_strategy,
     stats.Stats.dedup_state_peak)
  in
  let result = Alcotest.(triple (list (list int)) string int) in
  Alcotest.check result "partial order: B hashed per run of A"
    ([ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ] ], "prefix-unique", 2)
    (run [ attr "A" ]);
  Alcotest.check result "no order: every column hashed"
    ([ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ] ], "hash-unique", 3)
    (run [])

let test_unique_one_row_state () =
  let stats = Stats.create () in
  let op =
    Operator.of_rows ~order:[ attr "A" ] (int_schema [ "A" ])
      (List.map (fun i -> [| v_int i |]) [ 1; 1; 2; 2; 2; 3 ])
  in
  let drained = Operator.to_rows (Operator.unique ~stats op) in
  Alcotest.(check (list (list int))) "adjacent duplicates dropped"
    [ [ 1 ]; [ 2 ]; [ 3 ] ] (List.map ints_of drained);
  Alcotest.(check string) "covered path" "sorted-unique"
    stats.Stats.dedup_strategy;
  Alcotest.(check int) "one row of state" 1 stats.Stats.dedup_state_peak;
  Alcotest.(check int) "no hash probes" 0 stats.Stats.hash_probes;
  Alcotest.(check int) "one comparison per later row" 5
    stats.Stats.comparisons;
  Alcotest.(check int) "rows in" 6 stats.Stats.dedup_rows_in;
  Alcotest.(check int) "rows out" 3 stats.Stats.dedup_rows_out

let test_elided_unique_is_pass_through () =
  let stats = Stats.create () in
  let rows = [ [| v_int 1 |]; [| v_int 1 |]; [| v_int 2 |] ] in
  let u =
    Operator.elided_unique ~stats (Operator.of_rows (int_schema [ "A" ]) rows)
  in
  Alcotest.(check int) "nothing dropped" 3 (List.length (Operator.to_rows u));
  Alcotest.(check int) "one elision recorded" 1 stats.Stats.distinct_elisions;
  Alcotest.(check int) "no state held" 0 stats.Stats.dedup_state_peak

(* ---- streaming join operators ---- *)

let test_operator_hash_join () =
  let stats = Stats.create () in
  let probe =
    Operator.of_rows ~order:[ attr "A" ] (int_schema [ "A" ])
      [ [| v_int 1 |]; [| v_int 2 |]; [| v_int 9 |]; [| Value.Null |] ]
  in
  let build =
    Operator.of_rows (int_schema ~rel:"U" [ "K"; "V" ])
      [ [| v_int 1; v_int 10 |]; [| v_int 1; v_int 11 |];
        [| v_int 2; v_int 20 |]; [| Value.Null; v_int 30 |] ]
  in
  let j =
    Operator.hash_join ~stats ~probe_key:[ 0 ] ~build_key:[ 0 ] probe build
  in
  Alcotest.(check (list string)) "order inherited from probe" [ "A" ]
    (List.map (fun (a : Attr.t) -> a.Attr.name) (Operator.order j));
  Alcotest.(check int) "build side untouched before the first pull" 0
    stats.Stats.join_build_rows;
  Alcotest.(check (list (list int)))
    "bucket replay in build order, null keys dropped both sides"
    [ [ 1; 1; 10 ]; [ 1; 1; 11 ]; [ 2; 2; 20 ] ]
    (List.map ints_of (Operator.to_rows j));
  Alcotest.(check int) "build rows counted" 4 stats.Stats.join_build_rows;
  Alcotest.(check int) "probe rows counted" 4 stats.Stats.join_probe_rows;
  Alcotest.(check int) "no unique builds" 0 stats.Stats.unique_builds;
  Alcotest.(check int) "no early exits" 0 stats.Stats.probe_early_exits

let test_operator_hash_join_unique () =
  let stats = Stats.create () in
  let probe =
    Operator.of_rows (int_schema [ "A" ])
      [ [| v_int 1 |]; [| v_int 1 |]; [| v_int 2 |]; [| v_int 9 |] ]
  in
  let build =
    Operator.of_rows (int_schema ~rel:"U" [ "K" ])
      [ [| v_int 1 |]; [| v_int 2 |]; [| v_int 3 |] ]
  in
  let j =
    Operator.hash_join ~stats ~unique_build:true ~probe_key:[ 0 ]
      ~build_key:[ 0 ] probe build
  in
  Alcotest.(check (list (list int))) "one flat row per key"
    [ [ 1; 1 ]; [ 1; 1 ]; [ 2; 2 ] ]
    (List.map ints_of (Operator.to_rows j));
  Alcotest.(check int) "unique build recorded" 1 stats.Stats.unique_builds;
  Alcotest.(check int) "early exit on every matching probe" 3
    stats.Stats.probe_early_exits

let test_operator_semi_join () =
  let mk_probe () =
    Operator.of_rows (int_schema [ "A" ])
      [ [| v_int 1 |]; [| v_int 2 |]; [| v_int 3 |]; [| Value.Null |] ]
  in
  let mk_build () =
    Operator.of_rows (int_schema ~rel:"U" [ "K" ])
      [ [| v_int 2 |]; [| v_int 3 |]; [| v_int 4 |]; [| Value.Null |] ]
  in
  let stats = Stats.create () in
  let semi =
    Operator.semi_join ~stats ~probe_key:[ 0 ] ~build_key:[ 0 ] (mk_probe ())
      (mk_build ())
  in
  Alcotest.(check (list (list int)))
    "semi keeps matches; null keys match nothing"
    [ [ 2 ]; [ 3 ] ]
    (List.map ints_of (Operator.to_rows semi));
  let stats = Stats.create () in
  let anti_eq =
    Operator.semi_join ~anti:true ~null_equal:true ~stats ~probe_key:[ 0 ]
      ~build_key:[ 0 ] (mk_probe ()) (mk_build ())
  in
  Alcotest.(check (list (list int)))
    "anti under the setop total order: NULL = NULL, so only 1 survives"
    [ [ 1 ] ]
    (List.map ints_of (Operator.to_rows anti_eq))

(* Build rows of one key arrive interleaved with other keys; each probe
   replays its key's rows in build order, which is what keeps a merge
   join over the sorted inputs list-equal to the hash join. *)
let test_operator_hash_join_build_order () =
  let build_rows =
    [ [| v_int 1; v_int 10 |]; [| v_int 2; v_int 20 |];
      [| v_int 1; v_int 11 |]; [| v_int 2; v_int 21 |];
      [| v_int 1; v_int 12 |] ]
  in
  let hash probe build =
    Operator.to_rows
      (Operator.hash_join ~stats:(Stats.create ()) ~probe_key:[ 0 ]
         ~build_key:[ 0 ]
         (Operator.of_rows (int_schema [ "A" ]) probe)
         (Operator.of_rows (int_schema ~rel:"U" [ "K"; "V" ]) build))
  in
  Alcotest.(check (list (list int)))
    "each key's rows in build order, probe-major"
    [ [ 2; 2; 20 ]; [ 2; 2; 21 ]; [ 1; 1; 10 ]; [ 1; 1; 11 ]; [ 1; 1; 12 ];
      [ 2; 2; 20 ]; [ 2; 2; 21 ] ]
    (List.map ints_of
       (hash [ [| v_int 2 |]; [| v_int 1 |]; [| v_int 2 |] ] build_rows));
  let probe = [ [| v_int 1 |]; [| v_int 2 |]; [| v_int 2 |] ] in
  let build = List.stable_sort Relation.compare_rows build_rows in
  let merge =
    Operator.to_rows
      (Operator.merge_join ~stats:(Stats.create ()) ~probe_key:[ 0 ]
         ~build_key:[ 0 ]
         (Operator.of_rows ~order:[ attr "A" ] (int_schema [ "A" ]) probe)
         (Operator.of_rows ~order:[ attr ~rel:"U" "K" ]
            (int_schema ~rel:"U" [ "K"; "V" ])
            build))
  in
  Alcotest.(check (list (list int)))
    "list-equal to the merge join over the sorted inputs"
    (List.map ints_of merge)
    (List.map ints_of (hash probe build))

(* ---- the keyed hash table ---- *)

(* Values whose numeric forms straddle ±2^53, where consecutive integers
   stop being floats, and the edges of the int range. *)
let numeric_edge_gen =
  let p53 = 1 lsl 53 in
  let ints =
    List.concat_map (fun d -> [ Value.Int (p53 + d); Value.Int (-p53 - d) ])
      [ -3; -2; -1; 0; 1; 2; 3 ]
  in
  let floats =
    List.map (fun f -> Value.Float f)
      [ 0x1p53; 0x1p53 -. 1.; 0x1p53 +. 2.; -0x1p53; -0x1p53 +. 1.;
        -0x1p53 -. 2.; 0x1p53 -. 0.5; 0.; -0.; 0.5; 1.; Float.nan;
        Float.infinity; Float.neg_infinity; 0x1p62; -0x1p62; 0x1p62 -. 1024. ]
  in
  QCheck2.Gen.oneofl
    (ints @ floats
    @ [ Value.Int 0; Value.Int 1; Value.Int max_int; Value.Int min_int;
        Value.Null; Value.String "x" ])

let sign c = compare c 0

let prop_exact_numeric_order =
  QCheck2.Test.make ~name:"exact Int/Float order: transitive, Keyed agrees"
    ~count:3000
    QCheck2.Gen.(triple numeric_edge_gen numeric_edge_gen numeric_edge_gen)
    ~print:(fun (a, b, c) ->
      String.concat ", " (List.map Value.to_string [ a; b; c ]))
    (fun (a, b, c) ->
      let cmp = Value.compare_total in
      sign (cmp a b) = - sign (cmp b a)
      && ((not (cmp a b <= 0 && cmp b c <= 0)) || cmp a c <= 0)
      &&
      let t = Relation.Keyed.create [| 0 |] in
      ignore (Relation.Keyed.find_or_add t [| a |]);
      (cmp a b = 0) = (Relation.Keyed.find t [| 0 |] [| b |] = 0))

(* Keyed against a sort-based reference on random rows whose key columns
   (0 and 1) mix NULL, Int n and Float n; with up to ~300 distinct keys
   the table grows its 64 slots at least three times. *)
let keyed_rows_gen =
  let open QCheck2.Gen in
  let num n = oneofl [ Value.Int n; Value.Float (float_of_int n) ] in
  let value k =
    frequency [ (1, return Value.Null); (12, int_range 0 k >>= num) ]
  in
  list_size (int_range 300 600)
    (map (fun (a, b, c) -> [| a; b; c |]) (triple (value 40) (value 6) (value 9)))

let prop_keyed_matches_sort_reference =
  QCheck2.Test.make ~name:"Keyed agrees with a sort-based reference" ~count:60
    keyed_rows_gen (fun rows ->
      let key = [| 0; 1 |] in
      let rows = Array.of_list rows in
      let key_of r = [| r.(0); r.(1) |] in
      (* reference ids: distinct keys ranked by first occurrence, found by
         sorting (key, position) pairs *)
      let sorted =
        List.stable_sort
          (fun (a, _) (b, _) -> Relation.compare_rows a b)
          (List.init (Array.length rows) (fun i -> (key_of rows.(i), i)))
      in
      let rec firsts acc = function
        | [] -> List.rev acc
        | (k, i) :: rest ->
          let rest =
            List.filter (fun (k', _) -> not (Relation.equal_rows k k')) rest
          in
          firsts (i :: acc) rest
      in
      let first_seen = List.sort compare (firsts [] sorted) in
      let ref_id r =
        let rec go id = function
          | [] -> -1
          | i :: rest ->
            if Relation.equal_rows (key_of rows.(i)) (key_of r) then id
            else go (id + 1) rest
        in
        go 0 first_seen
      in
      let t = Relation.Keyed.create key in
      let ids = Array.map (Relation.Keyed.find_or_add t) rows in
      let ids_ok = Array.for_all2 (fun r id -> id = ref_id r) rows ids in
      let firsts_ok =
        List.for_all2
          (fun id i -> Relation.Keyed.first t id == rows.(i))
          (List.init (Relation.Keyed.count t) Fun.id)
          first_seen
      in
      (* [find] through another layout: key columns at 2 and 0, with the
         numeric forms swapped (Int n probes Float n and back) *)
      let swap = function
        | Value.Int n -> Value.Float (float_of_int n)
        | Value.Float f -> Value.Int (int_of_float f)
        | v -> v
      in
      let probe_ok r =
        let probe = [| swap r.(1); v_int 99; swap r.(0) |] in
        Relation.Keyed.find t [| 2; 0 |] probe = ref_id r
        && Relation.Keyed.find t [| 2; 0 |] [| v_int 7; v_int 0; v_int 41 |]
           = -1
      in
      (* grouping keeps each key's rows in arrival order *)
      let g = Relation.Keyed.group key (fun add -> Array.iter add rows) in
      let groups_ok =
        Array.for_all
          (fun r ->
            let id = Relation.Keyed.find g.Relation.Keyed.ids key r in
            let run =
              Array.sub g.Relation.Keyed.rows g.Relation.Keyed.starts.(id)
                (g.Relation.Keyed.starts.(id + 1) - g.Relation.Keyed.starts.(id))
            in
            Array.to_list run
            = List.filter
                (fun r' -> Relation.equal_rows (key_of r) (key_of r'))
                (Array.to_list rows))
          rows
      in
      Relation.Keyed.count t = List.length first_seen
      && Relation.Keyed.count t > 128
      && ids_ok && firsts_ok && Array.for_all probe_ok rows && groups_ok)

(* ---- ORDER BY: Operator.sort against an independent stable sort ---- *)

(* Sort-key values: NULL, NaN, ±0.0, Int n next to Float n, 2^53
   neighbours as Int and as Float, and a string. *)
let sort_value_gen =
  let open QCheck2.Gen in
  let p53 = 1 lsl 53 in
  frequency
    [ ( 1,
        oneofl
          [ Value.Null; Value.Float Float.nan; Value.Float 0.;
            Value.Float (-0.); Value.Int (p53 - 1); Value.Int p53;
            Value.Int (p53 + 1); Value.Float 0x1p53; Value.Float (0x1p53 +. 2.);
            Value.Float 0.5; Value.String "s" ] );
      (4, map (fun n -> Value.Int n) (int_range (-20) 20));
      (2, map (fun n -> Value.Float (float_of_int n)) (int_range (-20) 20)) ]

(* The reference order: [Value.compare_total] on each key column in turn,
   written without [Relation] so that it shares nothing with [Keyed]. *)
let compare_on keys (a : Relation.row) (b : Relation.row) =
  List.fold_left
    (fun c i -> if c <> 0 then c else Value.compare_total a.(i) b.(i))
    0 keys

(* Rows [| i; k1; ..; kw |]: column 0 numbers the row, so a placement that
   is not stable shows. Exactly [d] distinct keys (every one used) over
   [n] rows, with [d] drawn around n/4 — the rule between the two paths —
   or anywhere in [1, n]; [keys] lists the key columns in a random order. *)
let sort_case_gen =
  let open QCheck2.Gen in
  let* width = int_range 1 3 in
  let* n =
    frequency [ (1, return 0); (1, return 1); (8, int_range 2 160) ]
  in
  let* d =
    if n = 0 then return 0
    else
      oneof
        [ return (max 1 (n / 4)); return ((n / 4) + 1);
          return (max 1 ((n / 4) - 1)); int_range 1 n ]
  in
  let* candidates = list_repeat ((4 * d) + 16) (array_repeat width sort_value_gen) in
  let all = List.init width Fun.id in
  let pool =
    List.sort_uniq (compare_on all) candidates |> List.filteri (fun i _ -> i < d)
  in
  let d = List.length pool and pool = Array.of_list pool in
  let* extra = list_repeat (n - d) (int_range 0 (max 0 (d - 1))) in
  let* picks = shuffle_l (List.init d Fun.id @ extra) in
  let* keys = shuffle_l (List.init width (fun j -> j + 1)) in
  let rows =
    List.mapi
      (fun i k -> Array.append [| Value.Int i |] pool.(k))
      (if d = 0 then [] else picks)
  in
  return (width, keys, rows)

let sort_schema width =
  int_schema ("I" :: List.init width (fun j -> Printf.sprintf "K%d" (j + 1)))

let sorted_by_operator ?(stats = Stats.create ()) width keys rows =
  let schema = sort_schema width in
  let attrs = List.map (List.nth (Relschema.attrs schema)) keys in
  Operator.sort ~stats attrs (Operator.of_rows schema rows)

let prop_sort_matches_stable_sort =
  QCheck2.Test.make ~name:"sort is a stable sort on compare_total per key"
    ~count:500 sort_case_gen
    ~print:(fun (_, keys, rows) ->
      Printf.sprintf "keys %s over %s"
        (String.concat "," (List.map string_of_int keys))
        (String.concat "; "
           (List.map
              (fun r ->
                String.concat "," (Array.to_list (Array.map Value.to_string r)))
              rows)))
    (fun (width, keys, rows) ->
      let expected = List.stable_sort (compare_on keys) rows in
      let got = Operator.to_rows (sorted_by_operator width keys rows) in
      List.length got = List.length expected && List.for_all2 ( == ) got expected)

let test_sort_close () =
  let rows = List.init 40 (fun i -> [| v_int i; v_int (i mod 3) |]) in
  let op = sorted_by_operator 1 [ 1 ] rows in
  Alcotest.(check (option (list int))) "first row sorted on K1"
    (Some [ 0; 0 ]) (Option.map ints_of (Operator.next op));
  Operator.close op;
  Alcotest.(check bool) "next after close" true (Operator.next op = None)

(* With d distinct keys over n rows the keyed path costs at most
   d * ceil(log2 d) + d comparisons; the row sort past n/4 costs more. *)
let test_sort_counts () =
  let comparisons ~n ~d =
    let stats = Stats.create () in
    let rows = List.init n (fun i -> [| v_int i; v_int ((i * 7) mod d) |]) in
    let got = Operator.to_rows (sorted_by_operator ~stats 1 [ 1 ] rows) in
    Alcotest.(check int) "sorted_rows" n stats.Stats.sorted_rows;
    Alcotest.(check int) "one sort" 1 stats.Stats.sorts;
    Alcotest.(check bool) "stable sort on K1" true
      (List.for_all2 ( == ) got (List.stable_sort (compare_on [ 1 ]) rows));
    stats.Stats.comparisons
  in
  let bound d =
    let rec log2_ceil k p = if p >= d then k else log2_ceil (k + 1) (2 * p) in
    (d * log2_ceil 0 1) + d
  in
  Alcotest.(check bool) "10,000 rows over 10 keys: under 100 comparisons" true
    (comparisons ~n:10_000 ~d:10 < 100);
  Alcotest.(check bool) "d = n/4 sorts the distinct keys" true
    (comparisons ~n:400 ~d:100 <= bound 100);
  Alcotest.(check bool) "d = n/4 + 1 sorts the rows" true
    (comparisons ~n:400 ~d:101 > bound 101)

(* ---- planned join orders and the bounded scan cache ---- *)

let test_planned_join_orders_agree () =
  let db =
    Workload.Generator.supplier_db ~suppliers:25 ~parts_per_supplier:3 ()
  in
  let q =
    "SELECT S.SNAME, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A WHERE \
     S.SNO = P.SNO AND A.SNO = S.SNO AND P.COLOR = 'RED'"
  in
  let baseline = run db q in
  let perms =
    [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ];
      [ 2; 1; 0 ] ]
  in
  List.iter
    (fun perm ->
      let impl =
        Exec.Planned_join
          {
            Exec.jo_first = List.hd perm;
            jo_steps =
              List.map
                (fun l -> { Exec.js_leaf = l; js_unique_build = false; js_merge = false })
                (List.tl perm);
          }
      in
      let cfg = { (Exec.default_config ()) with Exec.join_impl = impl } in
      let r = run ~config:cfg db q in
      Alcotest.(check bool)
        (Printf.sprintf "order [%s] agrees with FROM order"
           (String.concat ";" (List.map string_of_int perm)))
        true
        (Relation.equal_bags baseline r))
    perms;
  (* a plan that is not a permutation of the leaves must fall back to FROM
     order, never misbehave *)
  let bogus =
    Exec.Planned_join
      {
        Exec.jo_first = 0;
        jo_steps = [ { Exec.js_leaf = 0; js_unique_build = true; js_merge = false } ];
      }
  in
  let cfg = { (Exec.default_config ()) with Exec.join_impl = bogus } in
  let r = run ~config:cfg db q in
  Alcotest.(check bool) "bogus plan falls back to FROM order" true
    (Relation.equal_bags baseline r);
  Alcotest.(check int) "fallback grants no unique builds" 0
    cfg.Exec.stats.Stats.unique_builds

let test_planned_unique_build_execution () =
  (* star schema: FACT first, both dimension builds certified unique (K is
     each dimension's primary key) *)
  let db = Workload.Datagen.star_db ~rows:500 () in
  let q = Sql.Parser.parse_query Workload.Datagen.star_query in
  let baseline = Exec.run_query db ~hosts:[] q in
  let impl =
    Exec.Planned_join
      {
        Exec.jo_first = 2;
        jo_steps =
          [ { Exec.js_leaf = 0; js_unique_build = true; js_merge = false };
            { Exec.js_leaf = 1; js_unique_build = true; js_merge = false } ];
      }
  in
  let cfg = { (Exec.default_config ()) with Exec.join_impl = impl } in
  let r = Exec.run_query ~config:cfg db ~hosts:[] q in
  Alcotest.(check bool) "unique-build plan agrees with FROM order" true
    (Relation.equal_bags baseline r);
  Alcotest.(check int) "two unique builds" 2 cfg.Exec.stats.Stats.unique_builds;
  Alcotest.(check int) "every probe early-exits" 1000
    cfg.Exec.stats.Stats.probe_early_exits;
  Alcotest.(check bool) "strategy recorded" true
    (cfg.Exec.stats.Stats.join_strategy = "unique-hash-join,unique-hash-join");
  (* withdrawn certificates: the same join order, bucket builds, the same
     probe-major row order *)
  let withdrawn =
    { (Exec.default_config ()) with
      Exec.join_impl = Exec.withdraw ~unique_builds:true ~merges:true impl }
  in
  let r' = Exec.run_query ~config:withdrawn db ~hosts:[] q in
  Alcotest.(check bool) "withdrawn plan keeps the row order" true
    (r.Relation.rows = r'.Relation.rows);
  Alcotest.(check int) "withdrawn plan grants no unique builds" 0
    withdrawn.Exec.stats.Stats.unique_builds;
  Alcotest.(check bool) "withdraw leaves other impls alone" true
    (Exec.withdraw ~unique_builds:true ~merges:true Exec.Hash_join
     = Exec.Hash_join)

(* The streaming joins and both EXISTS strategies bag-equal the
   nested-loop baseline on a three-table join and on a correlated EXISTS
   whose body is a self-join (its first table's row is read by the body
   from an enclosing slot). *)
let test_joins_and_exists_match_baseline () =
  let db =
    Workload.Generator.supplier_db ~suppliers:10 ~parts_per_supplier:2 ()
  in
  let queries =
    [ "SELECT S.SNO FROM SUPPLIER S, PARTS P, AGENTS A WHERE S.SNO = P.SNO \
       AND A.SNO = S.SNO";
      "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS (SELECT * FROM PARTS P1, \
       PARTS P2 WHERE P1.SNO = S.SNO AND P2.SNO = S.SNO AND P1.PNO < P2.PNO)" ]
  in
  let baseline =
    { (Exec.default_config ()) with
      Exec.join_impl = Exec.Nested_join;
      exists_impl = Exec.Naive_exists }
  in
  List.iter
    (fun q ->
      let expected = run ~config:baseline db q in
      Alcotest.(check bool) ("non-empty: " ^ q) true (expected.Relation.rows <> []);
      List.iter
        (fun exists_impl ->
          let config = { (Exec.default_config ()) with Exec.exists_impl } in
          Alcotest.(check bool) ("= baseline: " ^ q) true
            (Relation.equal_bags expected (run ~config db q)))
        [ Exec.Naive_exists; Exec.Indexed_exists ])
    queries

(* ---- compiled predicates ---- *)

module A = Sql.Ast
module G = Testsupport.Gen_sql
module Truth = Sqlval.Truth

(* R(A, B) and S(C, D) carry the Gen_sql columns; T(A, B) stands in for R
   inside an EXISTS ([FROM T R]), so its row must shadow the outer R's. *)
let predicate_catalog =
  List.fold_left Catalog.add_ddl Catalog.empty
    [ "CREATE TABLE R (A INT, B INT)"; "CREATE TABLE S (C INT, D INT)";
      "CREATE TABLE T (A INT, B INT)" ]

(* Values where evaluation is easy to get wrong, next to the Gen_sql
   constants (NULL, 0..3, 'x', 'y') they must compare with. *)
let predicate_value_gen =
  let p53 = 1 lsl 53 in
  QCheck2.Gen.oneofl
    [ Value.Null; Value.Int 0; Value.Int 1; Value.Int 2; Value.Int 3;
      Value.Float 0.; Value.Float (-0.); Value.Float 1.; Value.Float 2.5;
      Value.Float Float.nan; Value.Int p53; Value.Int (p53 + 1);
      Value.Float 0x1p53; Value.Float (0x1p53 +. 2.); Value.String "x";
      Value.String "y" ]

(* A direct recursive interpreter of SQL's three-valued logic (Kleene
   connectives; under L2 an unknown comparison is false), written apart
   from Logic.Eval. *)
let reference_truth logic ~col ~host p =
  let t b = if b then Truth.True else Truth.False in
  let scalar = function
    | A.Col a -> col a
    | A.Const v -> v
    | A.Host h -> host h
    | A.Agg _ -> assert false
  in
  let atom holds a b =
    match a, b with
    | Value.Null, _ | _, Value.Null ->
      if logic = Sqlval.Logic_mode.L2 then Truth.False else Truth.Unknown
    | _ -> t (holds (Value.compare_total a b))
  in
  let ( &&& ) x y =
    match x, y with
    | Truth.False, _ | _, Truth.False -> Truth.False
    | Truth.True, Truth.True -> Truth.True
    | _ -> Truth.Unknown
  in
  let ( ||| ) x y =
    match x, y with
    | Truth.True, _ | _, Truth.True -> Truth.True
    | Truth.False, Truth.False -> Truth.False
    | _ -> Truth.Unknown
  in
  let rec go = function
    | A.Ptrue -> Truth.True
    | A.Pfalse -> Truth.False
    | A.Cmp (op, a, b) ->
      let holds =
        match op with
        | A.Eq -> fun c -> c = 0
        | A.Ne -> fun c -> c <> 0
        | A.Lt -> fun c -> c < 0
        | A.Le -> fun c -> c <= 0
        | A.Gt -> fun c -> c > 0
        | A.Ge -> fun c -> c >= 0
      in
      atom holds (scalar a) (scalar b)
    | A.Between (a, lo, hi) ->
      let v = scalar a in
      atom (fun c -> c >= 0) v (scalar lo) &&& atom (fun c -> c <= 0) v (scalar hi)
    | A.In_list (a, ws) ->
      let v = scalar a in
      List.fold_left (fun acc w -> acc ||| atom (fun c -> c = 0) v w) Truth.False ws
    | A.Is_null a -> t (scalar a = Value.Null)
    | A.Is_not_null a -> t (scalar a <> Value.Null)
    | A.And (p, q) -> go p &&& go q
    | A.Or (p, q) -> go p ||| go q
    | A.Not p ->
      (match go p with
       | Truth.True -> Truth.False
       | Truth.False -> Truth.True
       | Truth.Unknown -> Truth.Unknown)
    | A.Exists _ -> assert false
  in
  go p

type predicate_case = {
  pc_pred : A.pred;
  pc_r : Value.t array;
  pc_s : Value.t array;
  pc_t : Value.t array;
  pc_hosts : (string * Value.t) list;
}

let predicate_case_gen =
  let open QCheck2.Gen in
  let row = array_repeat 2 predicate_value_gen in
  let* pc_pred = G.pred_gen in
  let* pc_r = row and* pc_s = row and* pc_t = row in
  let* h1 = predicate_value_gen and* h2 = predicate_value_gen in
  return { pc_pred; pc_r; pc_s; pc_t; pc_hosts = [ ("H1", h1); ("H2", h2) ] }

let print_predicate_case c =
  let row r = String.concat ", " (Array.to_list (Array.map Value.to_string r)) in
  Printf.sprintf "%s\nR(%s) S(%s) T(%s) :H1=%s :H2=%s" (G.pred_print c.pc_pred)
    (row c.pc_r) (row c.pc_s) (row c.pc_t)
    (Value.to_string (List.assoc "H1" c.pc_hosts))
    (Value.to_string (List.assoc "H2" c.pc_hosts))

(* The truth of a predicate as the executor sees it: a WHERE over one row
   passes it when the predicate is true, a WHERE NOT when it is false. *)
let executed_truth run p =
  match run p, run (A.Not p) with
  | true, false -> Some Truth.True
  | false, true -> Some Truth.False
  | false, false -> Some Truth.Unknown
  | true, true -> None

(* Every predicate the executor compiles — a filter over the R × S row, and
   an EXISTS body over T (named R, shadowing the outer R) correlated with
   S — agrees with the reference under both logics, for both EXISTS
   strategies. *)
let prop_compiled_predicates_match_reference =
  QCheck2.Test.make ~name:"compiled predicates match a reference interpreter"
    ~count:500 ~print:print_predicate_case predicate_case_gen (fun c ->
      let db = DB.create predicate_catalog in
      DB.load db "R" [ c.pc_r ];
      DB.load db "S" [ c.pc_s ];
      DB.load db "T" [ c.pc_t ];
      let from t corr = { A.table = t; corr = Some corr } in
      let spec from where =
        A.Spec (A.plain_spec ~select:A.Star ~from ~where ())
      in
      let outer = [ from "R" "R"; from "S" "S" ] in
      let value row = function "A" | "C" -> row.(0) | _ -> row.(1) in
      let host h = List.assoc h c.pc_hosts in
      List.for_all
        (fun (logic, exists_impl) ->
          let run q =
            let config =
              { (Exec.default_config ()) with Exec.logic; exists_impl }
            in
            (Exec.run_query ~config db ~hosts:c.pc_hosts q).Relation.rows <> []
          in
          let expected r =
            Some
              (reference_truth logic ~host c.pc_pred ~col:(fun a ->
                   value
                     (if a.Schema.Attr.rel = "R" then r else c.pc_s)
                     a.Schema.Attr.name))
          in
          executed_truth (fun p -> run (spec outer p)) c.pc_pred = expected c.pc_r
          && executed_truth
               (fun p ->
                 run (spec outer (A.Exists (A.plain_spec ~select:A.Star
                                              ~from:[ from "T" "R" ] ~where:p ()))))
               c.pc_pred
             = expected c.pc_t)
        [ (Sqlval.Logic_mode.L3, Exec.Naive_exists);
          (Sqlval.Logic_mode.L3, Exec.Indexed_exists);
          (Sqlval.Logic_mode.L2, Exec.Naive_exists);
          (Sqlval.Logic_mode.L2, Exec.Indexed_exists) ])

(* Compiling resolves nothing it cannot: a bad reference compiles, runs
   clean over an empty table, and raises as before once a row reaches it. *)
let test_compile_is_pure () =
  let cases =
    [ ( "SELECT R.A FROM R WHERE R.NOPE = 1",
        function Exec.Unbound_column _ -> true | _ -> false );
      ( "SELECT R.B FROM R, R X WHERE A = 1 OR R.B = X.B",
        function Failure _ -> true | _ -> false );
      ( "SELECT R.A FROM R WHERE R.A = :MISSING",
        function Exec.Unbound_host _ -> true | _ -> false );
      ( "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.NOPE = R.A)",
        function Exec.Unbound_column _ -> true | _ -> false );
      ( "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.C = :MISSING)",
        function Exec.Unbound_host _ -> true | _ -> false );
      ( "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM NOSUCH N WHERE N.A = 1)",
        function Failure _ -> true | _ -> false ) ]
  in
  List.iter
    (fun (q, expected) ->
      let compile db =
        Exec.compile db ~hosts:[]
          (Relalg.Plan.of_query (DB.catalog db) (Sql.Parser.parse_query q))
      in
      let empty = DB.create (DB.catalog (small_db ())) in
      Alcotest.(check int) ("no rows, no error: " ^ q) 0
        (List.length (Engine.Operator.to_relation (compile empty)).Relation.rows);
      let op = compile (small_db ()) in
      match Engine.Operator.to_relation op with
      | exception e when expected e -> ()
      | exception e -> Alcotest.failf "%s: raised %s" q (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: expected an error" q)
    cases

let correlation_db () =
  let cat =
    List.fold_left Catalog.add_ddl (DB.catalog (small_db ()))
      [ "CREATE TABLE T (A INT NOT NULL, B VARCHAR(10), PRIMARY KEY (A))" ]
  in
  let db = DB.create cat in
  List.iter
    (fun t -> DB.load db t (DB.table (small_db ()) t).Relation.rows)
    [ "R"; "S" ];
  DB.load db "T" [ [| v_int 5; v_str "x" |]; [| v_int 6; v_str "z" |] ];
  db

let test_correlation_innermost_first () =
  let db = correlation_db () in
  let cases =
    [ (* R.A inside names T's row: every outer row qualifies *)
      ( "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM T R WHERE R.A = 5)",
        [ 1; 2; 3 ] );
      ( "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM T X WHERE X.B = R.B)",
        [ 1; 3 ] );
      (* two levels: the innermost body reads the middle block (S.C) and
         the outermost (R.B) *)
      ( "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.C = R.A AND \
         EXISTS (SELECT * FROM T WHERE T.B = R.B AND T.A > S.C))",
        [ 1 ] );
      ( "SELECT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.C = R.A \
         AND EXISTS (SELECT * FROM T R WHERE R.B = 'z' AND R.A > S.C))",
        [ 3 ] ) ]
  in
  List.iter
    (fun (q, expected) ->
      List.iter
        (fun exists_impl ->
          let config = { (Exec.default_config ()) with Exec.exists_impl } in
          check_rows q (List.map (fun a -> [ v_int a ]) expected)
            (run ~config db q))
        [ Exec.Naive_exists; Exec.Indexed_exists ])
    cases

(* Single-level EXISTS: both strategies evaluate the subquery once per
   outer row. *)
let test_exists_strategies_count_alike () =
  let db = Workload.Generator.supplier_db ~suppliers:30 ~parts_per_supplier:4 () in
  List.iter
    (fun q ->
      let stats exists_impl =
        let config = { (Exec.default_config ()) with Exec.exists_impl } in
        let r = run ~config db q in
        (r, config.Exec.stats.Engine.Stats.subquery_evals)
      in
      let naive, naive_evals = stats Exec.Naive_exists in
      let indexed, indexed_evals = stats Exec.Indexed_exists in
      Alcotest.(check bool) ("agree: " ^ q) true (Relation.equal_bags naive indexed);
      Alcotest.(check int) ("subquery_evals: " ^ q) naive_evals indexed_evals;
      Alcotest.(check bool) ("evaluated: " ^ q) true (naive_evals > 0))
    [ "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS (SELECT * FROM PARTS P \
       WHERE P.SNO = S.SNO AND P.COLOR = 'RED')";
      "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS (SELECT * FROM PARTS P \
       WHERE P.SNO = S.SNO AND P.COLOR = 'RED')";
      "SELECT P.PNO FROM PARTS P WHERE EXISTS (SELECT * FROM PARTS P WHERE \
       P.PNO = 1)" ]

(* ---- duplicate-elimination strategies under the full executor ---- *)

(* quadratic on purpose: shares nothing with the hash table under test *)
let naive_distinct rows =
  List.rev
    (List.fold_left
       (fun kept r ->
         if List.exists (Relation.equal_rows r) kept then kept else r :: kept)
       [] rows)

(* Every strategy must agree with a naive dedup of the SELECT ALL rows, on
   seeded random schemas/queries/instances from the difftest generator. *)
let test_strategies_agree_with_naive () =
  let rng = Random.State.make [| 0x0b5e55ed |] in
  for _ = 1 to 40 do
    let c = Difftest.Case.generate ~rng () in
    match c.Difftest.Case.query with
    | Sql.Ast.Setop _ -> ()
    | Sql.Ast.Spec q ->
      let all_q = Sql.Ast.Spec { q with Sql.Ast.distinct = Sql.Ast.All } in
      let dq = Sql.Ast.Spec { q with Sql.Ast.distinct = Sql.Ast.Distinct } in
      List.iter
        (fun inst ->
          let db = Difftest.Case.database c inst in
          let hosts = inst.Difftest.Case.hosts in
          let bag = Exec.run_query db ~hosts all_q in
          let expect =
            Relation.make bag.Relation.schema (naive_distinct bag.Relation.rows)
          in
          List.iter
            (fun impl ->
              let config =
                { (Exec.default_config ()) with Exec.distinct_impl = impl }
              in
              let r = Exec.run_query ~config db ~hosts dq in
              Alcotest.(check bool) "strategy agrees with naive dedup" true
                (Relation.equal_bags expect r))
            [ Exec.Sort_distinct; Exec.Stream_hash ])
        c.Difftest.Case.instances
  done

(* The planner narrates the path [Operator.unique] takes, and the run
   takes it: the key order covers none of the GRP projection, the group
   order all of it. *)
let test_narrated_path_runs () =
  let cat = Workload.Datagen.catalog in
  let q = Sql.Parser.parse_query Workload.Datagen.group_query in
  let run db =
    let choice = Optimizer.Distinct_plan.choose ~database:db cat q in
    let cfg =
      { (Exec.default_config ()) with
        Exec.distinct_impl = choice.Optimizer.Distinct_plan.impl }
    in
    let r = Exec.run_query ~config:cfg db ~hosts:[] q in
    Alcotest.(check string) "narrated path ran"
      choice.Optimizer.Distinct_plan.name cfg.Exec.stats.Stats.dedup_strategy;
    (choice, r, cfg.Exec.stats)
  in
  let db = Workload.Datagen.bulk_db ~rows:2000 () in
  let baseline = Exec.run_query db ~hosts:[] q in
  let choice, r, stats = run db in
  Alcotest.(check string) "uncovered order hashes" "hash-unique"
    choice.Optimizer.Distinct_plan.name;
  Alcotest.(check int) "no column covered" 0
    choice.Optimizer.Distinct_plan.covered;
  Alcotest.(check int) "state peak is the distinct count"
    (Relation.cardinality baseline) stats.Stats.dedup_state_peak;
  Alcotest.(check bool) "uncovered result correct" true
    (Relation.equal_bags baseline r);
  let dbg =
    Workload.Datagen.bulk_db ~rows:2000 ~order:Workload.Datagen.Group_order ()
  in
  let choice, r, stats = run dbg in
  Alcotest.(check string) "covered order compares" "sorted-unique"
    choice.Optimizer.Distinct_plan.name;
  Alcotest.(check int) "the one column covered" 1
    choice.Optimizer.Distinct_plan.covered;
  Alcotest.(check int) "one row of state" 1 stats.Stats.dedup_state_peak;
  Alcotest.(check bool) "covered result correct" true
    (Relation.equal_bags baseline r)

(* [Operator.unique] over rows sorted on a random prefix of their columns,
   mixing values that compare equal across types (Int n and Float n,
   -0.0 and 0.0, the neighbours of 2^53) with NULL, NaN and strings. Rows
   are drawn from a small pool so that runs hold duplicates. *)
let unique_case_gen =
  let open QCheck2.Gen in
  let p53 = 1 lsl 53 in
  let value =
    oneofl
      [ Value.Null; Value.Float Float.nan; Value.Float 0.; Value.Float (-0.);
        Value.Int 0; Value.Int 1; Value.Float 1.; Value.Int p53;
        Value.Int (p53 + 1); Value.Float 0x1p53; Value.String "x";
        Value.String "y" ]
  in
  let* arity = int_range 1 3 in
  let* pool = list_size (int_range 1 6) (array_size (return arity) value) in
  let* rows = list_size (int_range 1 40) (oneofl pool) in
  let* columns = shuffle_l (List.init arity Fun.id) in
  let* k = int_range 0 arity in
  return (arity, List.filteri (fun i _ -> i < k) columns, rows)

let prop_unique_matches_first_occurrence =
  QCheck2.Test.make ~name:"unique: first occurrences, peak = largest run"
    ~count:1000 unique_case_gen
    ~print:(fun (_, key, rows) ->
      Printf.sprintf "sorted on %s: %s"
        (String.concat "," (List.map string_of_int key))
        (String.concat "; "
           (List.map
              (fun r ->
                String.concat "," (Array.to_list (Array.map Value.to_string r)))
              rows)))
    (fun (arity, key, rows) ->
      let schema = int_schema (List.init arity (Printf.sprintf "C%d")) in
      let key_arr = Array.of_list key in
      let sorted = Array.of_list rows in
      Relation.sort_rows ~key:key_arr sorted;
      let sorted = Array.to_list sorted in
      let order = List.map (List.nth (Relschema.attrs schema)) key in
      let stats = Stats.create () in
      let got =
        Operator.to_rows
          (Operator.unique ~stats (Operator.of_rows ~order schema sorted))
      in
      (* runs: maximal stretches of rows equal on the sort key *)
      let rec runs = function
        | [] -> []
        | r :: rest ->
          (match runs rest with
           | (s :: _ as run) :: more
             when Relation.compare_at key_arr r key_arr s = 0 ->
             (r :: run) :: more
           | more -> [ r ] :: more)
      in
      let largest_run =
        List.fold_left
          (fun m run -> max m (List.length (naive_distinct run)))
          0 (runs sorted)
      in
      List.length got = List.length (naive_distinct sorted)
      && List.for_all2 ( == ) got (naive_distinct sorted)
      && stats.Stats.dedup_state_peak = largest_run)

(* The planner may pick the elided pass-through only with an Algorithm 1
   certificate: checked deterministically on the key-covered bulk workload,
   then as a property over seeded random cases. *)
let test_elided_only_when_certified () =
  let cat = Workload.Datagen.catalog in
  let key_q = Sql.Parser.parse_query Workload.Datagen.key_query in
  let grp_q = Sql.Parser.parse_query Workload.Datagen.group_query in
  let db = Workload.Datagen.bulk_db ~rows:2000 () in
  let choice = Optimizer.Distinct_plan.choose ~database:db cat key_q in
  Alcotest.(check bool) "key projection elided" true
    (choice.Optimizer.Distinct_plan.impl = Exec.Stream_elided);
  Alcotest.(check bool) "elision carries the certificate" true
    choice.Optimizer.Distinct_plan.alg1_yes;
  let cfg =
    { (Exec.default_config ()) with Exec.distinct_impl = Exec.Stream_elided }
  in
  let r = Exec.run_query ~config:cfg db ~hosts:[] key_q in
  Alcotest.(check int) "pass-through kept every row" 2000
    (Relation.cardinality r);
  Alcotest.(check int) "elision counted" 1
    cfg.Exec.stats.Stats.distinct_elisions;
  let grp_choice = Optimizer.Distinct_plan.choose ~database:db cat grp_q in
  Alcotest.(check bool) "duplicate-heavy projection not elided" true
    (grp_choice.Optimizer.Distinct_plan.impl <> Exec.Stream_elided);
  (* property: on random cases, an elided plan implies an Algorithm 1 YES *)
  let rng = Random.State.make [| 0xce57 |] in
  for _ = 1 to 40 do
    let c = Difftest.Case.generate ~rng () in
    match c.Difftest.Case.query with
    | Sql.Ast.Setop _ -> ()
    | Sql.Ast.Spec q ->
      let ccat = Difftest.Case.catalog c in
      let dq = Sql.Ast.Spec { q with Sql.Ast.distinct = Sql.Ast.Distinct } in
      List.iter
        (fun inst ->
          let db = Difftest.Case.database c inst in
          let choice = Optimizer.Distinct_plan.choose ~database:db ccat dq in
          if choice.Optimizer.Distinct_plan.impl = Exec.Stream_elided then begin
            let yes =
              try
                Uniqueness.Algorithm1.distinct_is_redundant ccat
                  { q with Sql.Ast.distinct = Sql.Ast.Distinct }
              with _ -> false
            in
            Alcotest.(check bool) "elision independently certified" true yes
          end)
        c.Difftest.Case.instances
  done

(* ---- bulk instance generator and order provenance ---- *)

let test_datagen_valid_and_deterministic () =
  let db = Workload.Datagen.bulk_db ~rows:2000 () in
  Alcotest.(check int) "bulk rows" 2000 (DB.row_count db "BULK");
  Alcotest.(check int) "valid instance" 0 (List.length (DB.validate db));
  Alcotest.(check (list string)) "key order recorded" [ "K" ]
    (DB.order db "BULK");
  let db2 = Workload.Datagen.bulk_db ~rows:2000 () in
  Alcotest.(check bool) "deterministic by seed" true
    (Relation.equal_bags (DB.table db "BULK") (DB.table db2 "BULK"));
  let dbg =
    Workload.Datagen.bulk_db ~rows:2000 ~order:Workload.Datagen.Group_order ()
  in
  Alcotest.(check (list string)) "group order recorded" [ "GRP" ]
    (DB.order dbg "BULK");
  Alcotest.(check bool) "same bag under either physical order" true
    (Relation.equal_bags (DB.table db "BULK") (DB.table dbg "BULK"))

let test_load_sorted_verifies () =
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A))"
  in
  let db = DB.create cat in
  let sorted = [ [| v_int 1; v_int 9 |]; [| v_int 2; v_int 3 |] ] in
  DB.load_sorted db "T" sorted ~order:[ "A" ];
  Alcotest.(check (list string)) "order recorded" [ "A" ] (DB.order db "T");
  (match DB.load_sorted db "T" (List.rev sorted) ~order:[ "A" ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "unsorted load accepted");
  (match DB.load_sorted db "T" sorted ~order:[ "NOPE" ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "unknown order column accepted");
  DB.load_sorted db "T" sorted ~order:[ "A" ];
  DB.insert db "T" [| v_int 0; v_int 0 |];
  Alcotest.(check (list string)) "insert resets order" [] (DB.order db "T")

(* ---- table metadata, the answer drain, and plan cost vs table size ---- *)

let test_row_count_tracks_writes () =
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A))"
  in
  let db = DB.create cat in
  let agrees what =
    Alcotest.(check int) what
      (List.length (DB.table db "T").Relation.rows)
      (DB.row_count db "T")
  in
  agrees "empty";
  DB.load db "T" (List.init 300 (fun i -> [| v_int i; v_int 0 |]));
  agrees "after load";
  DB.load_sorted db "T" [ [| v_int 1; v_int 9 |]; [| v_int 2; v_int 3 |] ]
    ~order:[ "A" ];
  agrees "after load_sorted";
  DB.insert db "T" [| v_int 0; v_int 0 |];
  agrees "after insert";
  Alcotest.(check int) "counted" 3 (DB.row_count db "T");
  (match DB.insert db "T" [| v_int 5 |] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "wrong-arity insert accepted");
  (match DB.load db "T" [ [| v_int 5; v_int 5; v_int 5 |] ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "wrong-arity load accepted");
  agrees "rejected writes leave the table as it was";
  Alcotest.(check int) "still counted" 3 (DB.row_count db "T")

(* Sizes on either side of the drain's 128-row chunk boundary. *)
let test_drain_keeps_rows () =
  let schema = int_schema [ "A" ] in
  List.iter
    (fun n ->
      let source = List.init n (fun i -> [| v_int i |]) in
      let same what got =
        Alcotest.(check int) (Printf.sprintf "%s: %d rows" what n) n
          (List.length got);
        Alcotest.(check bool)
          (Printf.sprintf "%s: the source rows, in order (%d)" what n)
          true
          (List.for_all2 ( == ) source got)
      in
      same "to_rows" (Operator.to_rows (Operator.of_rows schema source));
      same "to_relation"
        (Operator.to_relation (Operator.of_rows schema source)).Relation.rows)
    [ 0; 1; 127; 128; 129; 256; 257; 1000 ];
  List.iter
    (fun drain ->
      let rows = List.init 200 (fun i -> [| v_int i |]) @ [ [| v_int 0; v_int 1 |] ] in
      match drain (Operator.of_rows schema rows) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "wrong-arity row drained")
    [ (fun op -> ignore (Operator.to_rows op));
      (fun op -> ignore (Operator.to_relation op)) ]

(* Planning and compiling read one count per table, never the rows, so
   their cost does not grow with the table. *)
let test_plan_cost_independent_of_table_size () =
  let cat = Workload.Datagen.catalog in
  let queries =
    List.map Sql.Parser.parse_query
      [ Workload.Datagen.key_query; Workload.Datagen.order_key_query;
        "SELECT B.K, COUNT(*) FROM BULK B GROUP BY B.K" ]
  in
  let plan_and_compile db q =
    let { Optimizer.Physical.query = q; config; _ } =
      Optimizer.Physical.plan ~database:db cat q
    in
    ignore (Exec.compile ~config db ~hosts:[] (Relalg.Plan.of_query cat q))
  in
  let median_us db =
    let run () =
      let t0 = Unix.gettimeofday () in
      List.iter (plan_and_compile db) queries;
      (Unix.gettimeofday () -. t0) *. 1e6
    in
    run () |> ignore;
    let runs = List.sort compare (List.init 21 (fun _ -> run ())) in
    List.nth runs 10
  in
  let small = median_us (Workload.Datagen.bulk_db ~rows:1_000 ()) in
  let large = median_us (Workload.Datagen.bulk_db ~rows:100_000 ()) in
  if large >= 3.0 *. Float.max small 1.0 then
    Alcotest.failf
      "plan+compile at 10^5 rows took %.0f us, %.1fx the %.0f us at 10^3"
      large (large /. small) small

let () =
  Alcotest.run "engine"
    [
      ( "exec",
        [
          Alcotest.test_case "scan+project" `Quick test_scan_project;
          Alcotest.test_case "3VL selection" `Quick test_select_3vl;
          Alcotest.test_case "product join" `Quick test_product_join;
          Alcotest.test_case "bag projection keeps duplicates" `Quick
            test_projection_keeps_duplicates;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "distinct equates nulls" `Quick
            test_distinct_null_equivalence;
          Alcotest.test_case "hash distinct agrees with sort" `Quick
            test_hash_distinct_agrees;
          Alcotest.test_case "host variables" `Quick test_host_variables;
          Alcotest.test_case "correlated EXISTS" `Quick test_exists_correlated;
          Alcotest.test_case "NOT EXISTS" `Quick test_not_exists;
          Alcotest.test_case "INTERSECT / INTERSECT ALL" `Quick
            test_intersect_distinct_and_all;
          Alcotest.test_case "EXCEPT / EXCEPT ALL" `Quick
            test_except_distinct_and_all;
          Alcotest.test_case "set ops equate nulls" `Quick
            test_setop_null_handling;
          Alcotest.test_case "hash join agrees with naive" `Quick
            test_hash_join_agrees_with_naive;
          Alcotest.test_case "hash join ignores NULL keys" `Quick
            test_hash_join_null_keys;
          Alcotest.test_case "indexed EXISTS agrees with naive" `Quick
            test_indexed_exists_agrees;
          Alcotest.test_case "hash keys are typed values" `Quick
            test_hash_join_typed_keys;
          Alcotest.test_case "stats count sorts" `Quick test_stats_sort_counted;
          Alcotest.test_case "unbound references" `Quick test_unbound_errors;
        ] );
      ( "validate",
        [
          Alcotest.test_case "valid instance" `Quick test_validate_ok;
          Alcotest.test_case "duplicate pk" `Quick test_validate_duplicate_pk;
          Alcotest.test_case "null pk" `Quick test_validate_null_pk;
          Alcotest.test_case "check constraint" `Quick test_validate_check;
          Alcotest.test_case "unique with nulls" `Quick
            test_validate_unique_nulls;
          Alcotest.test_case "float keys compare as values" `Quick
            test_validate_float_key;
        ] );
      ( "workload",
        [
          Alcotest.test_case "generator produces valid instances" `Quick
            test_generator_valid;
          Alcotest.test_case "scales past 499 suppliers" `Quick
            test_generator_scales_past_499;
          Alcotest.test_case "deterministic by seed" `Quick
            test_generator_deterministic;
          Alcotest.test_case "bulk generator valid and deterministic" `Quick
            test_datagen_valid_and_deterministic;
          Alcotest.test_case "load_sorted verifies its order claim" `Quick
            test_load_sorted_verifies;
          Alcotest.test_case "row_count tracks every write" `Quick
            test_row_count_tracks_writes;
          Alcotest.test_case "plan cost independent of table size" `Quick
            test_plan_cost_independent_of_table_size;
        ] );
      ( "operator",
        [
          Alcotest.test_case "unique_path" `Quick test_unique_path;
          Alcotest.test_case "product inherits left order" `Quick
            test_product_order_inherits_left;
          Alcotest.test_case "unique hashes what the order leaves" `Quick
            test_unique_hashes_uncovered_order;
          Alcotest.test_case "unique holds one row on a covering order" `Quick
            test_unique_one_row_state;
          Alcotest.test_case "elided_unique is a pass-through" `Quick
            test_elided_unique_is_pass_through;
          Alcotest.test_case "hash_join streams buckets in build order" `Quick
            test_operator_hash_join;
          Alcotest.test_case "hash_join unique build early-exits" `Quick
            test_operator_hash_join_unique;
          Alcotest.test_case "semi_join and anti variants" `Quick
            test_operator_semi_join;
          Alcotest.test_case "hash_join replays interleaved keys in build order"
            `Quick test_operator_hash_join_build_order;
          Alcotest.test_case "drain keeps rows, order and arity check" `Quick
            test_drain_keeps_rows;
        ] );
      ( "keyed",
        List.map QCheck_alcotest.to_alcotest
          [ prop_exact_numeric_order; prop_keyed_matches_sort_reference ] );
      ( "sort",
        [
          Alcotest.test_case "close ends the stream" `Quick test_sort_close;
          Alcotest.test_case "comparisons follow the distinct keys" `Quick
            test_sort_counts;
          QCheck_alcotest.to_alcotest prop_sort_matches_stable_sort;
        ] );
      ( "join",
        [
          Alcotest.test_case "every planned order agrees" `Quick
            test_planned_join_orders_agree;
          Alcotest.test_case "unique builds execute correctly" `Quick
            test_planned_unique_build_execution;
          Alcotest.test_case "joins and EXISTS match the baseline" `Quick
            test_joins_and_exists_match_baseline;
        ] );
      ( "compiled",
        [
          QCheck_alcotest.to_alcotest prop_compiled_predicates_match_reference;
          Alcotest.test_case "compiling is pure" `Quick test_compile_is_pure;
          Alcotest.test_case "correlation resolves innermost-first" `Quick
            test_correlation_innermost_first;
          Alcotest.test_case "EXISTS strategies count alike" `Quick
            test_exists_strategies_count_alike;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "strategies agree with naive dedup" `Quick
            test_strategies_agree_with_naive;
          Alcotest.test_case "the narrated dedup path runs" `Quick
            test_narrated_path_runs;
          Alcotest.test_case "elision requires an Algorithm 1 certificate"
            `Quick test_elided_only_when_certified;
          QCheck_alcotest.to_alcotest prop_unique_matches_first_occurrence;
        ] );
    ]
