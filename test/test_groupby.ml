(* GROUP BY / aggregation extension (paper section 8 future work):
   parsing, execution semantics (3VL aggregates, NULL group keys), the
   grouped uniqueness rule, and the redundant-grouping rewrite. *)

module Value = Sqlval.Value
module DB = Engine.Database
module Exec = Engine.Exec
module Relation = Engine.Relation
module R = Uniqueness.Rewrite
open Sql.Ast

let catalog = Workload.Paper_schema.catalog ()
let v_int i = Value.Int i
let v_str s = Value.String s

let run db s = Exec.run_sql db ~hosts:[] s

let rows r = List.sort compare (List.map Array.to_list r.Relation.rows)

let check_rows msg expected r =
  Alcotest.(check (list (list (Alcotest.testable Value.pp Value.equal_null))))
    msg (List.sort compare expected) (rows r)

(* a small table with nulls and duplicate groups *)
let small_db () =
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE T (K INT NOT NULL, G VARCHAR(5), V INT, PRIMARY KEY (K))"
  in
  let db = DB.create cat in
  DB.load db "T"
    [ [| v_int 1; v_str "a"; v_int 10 |];
      [| v_int 2; v_str "a"; v_int 20 |];
      [| v_int 3; v_str "b"; Value.Null |];
      [| v_int 4; v_str "b"; v_int 5 |];
      [| v_int 5; Value.Null; v_int 7 |];
      [| v_int 6; Value.Null; Value.Null |] ];
  db

(* ---- parsing ---- *)

let test_parse_group_by () =
  let q =
    Sql.Parser.parse_query_spec
      "SELECT T.G, COUNT(*), SUM(T.V) FROM T GROUP BY T.G"
  in
  (match q.select with
   | Cols [ Col _; Agg (Count, None); Agg (Sum, Some (Col _)) ] -> ()
   | _ -> Alcotest.fail "select shape");
  Alcotest.(check int) "one group col" 1 (List.length q.group_by)

let test_parse_round_trip () =
  let s = "SELECT T.G, COUNT(*), MIN(T.V) FROM T GROUP BY T.G" in
  let q1 = Sql.Parser.parse_query s in
  let q2 = Sql.Parser.parse_query (Sql.Pretty.query q1) in
  Alcotest.(check bool) "round trip" true (q1 = q2)

let test_parse_qualified_star () =
  let q = Sql.Parser.parse_query_spec "SELECT S.* FROM SUPPLIER S, PARTS P" in
  match q.select with
  | Cols [ Col a ] ->
    Alcotest.(check string) "qualified star" "S.*" (Schema.Attr.to_string a)
  | _ -> Alcotest.fail "select shape"

let test_count_not_reserved () =
  (* COUNT is usable as a column name when not followed by a parenthesis *)
  let q = Sql.Parser.parse_query_spec "SELECT T.COUNT FROM T" in
  match q.select with
  | Cols [ Col a ] -> Alcotest.(check string) "col" "T.COUNT" (Schema.Attr.to_string a)
  | _ -> Alcotest.fail "select shape"

(* ---- execution ---- *)

let test_count_groups () =
  let db = small_db () in
  let r = run db "SELECT T.G, COUNT(*) FROM T GROUP BY T.G" in
  check_rows "counts per group"
    [ [ v_str "a"; v_int 2 ]; [ v_str "b"; v_int 2 ]; [ Value.Null; v_int 2 ] ]
    r

let test_count_column_skips_nulls () =
  let db = small_db () in
  let r = run db "SELECT T.G, COUNT(T.V) FROM T GROUP BY T.G" in
  check_rows "non-null counts"
    [ [ v_str "a"; v_int 2 ]; [ v_str "b"; v_int 1 ]; [ Value.Null; v_int 1 ] ]
    r

let test_sum_min_max_avg () =
  let db = small_db () in
  let r = run db "SELECT T.G, SUM(T.V), MIN(T.V), MAX(T.V) FROM T GROUP BY T.G" in
  check_rows "sum/min/max ignore nulls"
    [ [ v_str "a"; v_int 30; v_int 10; v_int 20 ];
      [ v_str "b"; v_int 5; v_int 5; v_int 5 ];
      [ Value.Null; v_int 7; v_int 7; v_int 7 ] ]
    r;
  let r = run db "SELECT T.G, AVG(T.V) FROM T GROUP BY T.G" in
  check_rows "avg"
    [ [ v_str "a"; Value.Float 15.0 ]; [ v_str "b"; Value.Float 5.0 ];
      [ Value.Null; Value.Float 7.0 ] ]
    r

let test_null_group_keys_collapse () =
  (* two NULL-keyed rows form ONE group (null-comparison semantics) *)
  let db = small_db () in
  let r = run db "SELECT T.G FROM T GROUP BY T.G" in
  Alcotest.(check int) "three groups" 3 (Relation.cardinality r)

let test_global_aggregate () =
  let db = small_db () in
  let r = run db "SELECT COUNT(*), SUM(T.V) FROM T" in
  check_rows "global" [ [ v_int 6; v_int 42 ] ] r

let test_global_aggregate_empty_input () =
  let cat =
    Catalog.add_ddl Catalog.empty "CREATE TABLE E (K INT NOT NULL, PRIMARY KEY (K))"
  in
  let db = DB.create cat in
  let r =
    run db "SELECT COUNT(*), SUM(E.K), MIN(E.K), MAX(E.K), AVG(E.K) FROM E"
  in
  check_rows "one row over empty input"
    [ [ v_int 0; Value.Null; Value.Null; Value.Null; Value.Null ] ]
    r;
  (* but grouping an empty input yields no groups *)
  let r = run db "SELECT E.K, COUNT(*) FROM E GROUP BY E.K" in
  Alcotest.(check int) "no groups" 0 (Relation.cardinality r)

let test_sum_all_nulls_is_null () =
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE N (K INT NOT NULL, V INT, PRIMARY KEY (K))"
  in
  let db = DB.create cat in
  DB.load db "N" [ [| v_int 1; Value.Null |]; [| v_int 2; Value.Null |] ];
  let r = run db "SELECT SUM(N.V), MIN(N.V), AVG(N.V), COUNT(N.V) FROM N" in
  check_rows "aggregates of all-null column"
    [ [ Value.Null; Value.Null; Value.Null; v_int 0 ] ]
    r

let test_group_by_with_where () =
  let db = small_db () in
  let r =
    run db "SELECT T.G, COUNT(*) FROM T WHERE T.V IS NOT NULL GROUP BY T.G"
  in
  check_rows "where before grouping"
    [ [ v_str "a"; v_int 2 ]; [ v_str "b"; v_int 1 ]; [ Value.Null; v_int 1 ] ]
    r

let test_group_by_join () =
  let db = Workload.Generator.supplier_db ~suppliers:20 ~parts_per_supplier:5 () in
  let r =
    run db
      "SELECT S.SNO, COUNT(*) FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO \
       GROUP BY S.SNO"
  in
  Alcotest.(check int) "one group per supplier" 20 (Relation.cardinality r);
  List.iter
    (fun row ->
      Alcotest.(check bool) "five parts each" true
        (Value.equal_null row.(1) (v_int 5)))
    r.Relation.rows

let test_select_not_in_group_by_rejected () =
  let db = small_db () in
  match run db "SELECT T.V, COUNT(*) FROM T GROUP BY T.G" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* ---- hash aggregation against the sort-then-split reference ---- *)

(* The reference: the engine's grouping before hash aggregation — stably
   sort the input on the group key under [Value.compare_total], split it
   into runs of equal keys, and compute each aggregate over the run's
   operands. Returns the output rows in key order. *)
let reference_aggregate rows ~key ~cells =
  let compare_keys a b =
    List.fold_left
      (fun c i -> if c <> 0 then c else Value.compare_total a.(i) b.(i))
      0 key
  in
  let groups =
    match key with
    | [] -> [ rows ]
    | _ ->
      let rec split = function
        | [] -> []
        | row :: rest ->
          let rec take acc = function
            | row' :: rest' when compare_keys row row' = 0 ->
              take (row' :: acc) rest'
            | remaining -> (List.rev acc, remaining)
          in
          let group, remaining = take [ row ] rest in
          group :: split remaining
      in
      split (List.stable_sort compare_keys rows)
  in
  let numeric_sum vs =
    List.fold_left
      (fun acc v ->
        match v with
        | Value.Int i -> acc +. float_of_int i
        | Value.Float f -> acc +. f
        | _ -> acc)
      0.0 vs
  in
  let compute fn operand group =
    let operands =
      match operand with
      | None -> List.map (fun _ -> Value.Int 1) group
      | Some i ->
        List.filter
          (fun v -> not (Value.is_null v))
          (List.map (fun row -> row.(i)) group)
    in
    match fn, operands with
    | Count, vs -> Value.Int (List.length vs)
    | (Sum | Min | Max | Avg), [] -> Value.Null
    | Sum, vs ->
      if List.for_all (function Value.Int _ -> true | _ -> false) vs then
        Value.Int
          (List.fold_left
             (fun acc v -> match v with Value.Int i -> acc + i | _ -> acc)
             0 vs)
      else Value.Float (numeric_sum vs)
    | Min, v :: vs ->
      List.fold_left
        (fun m w -> if Value.compare_total w m < 0 then w else m)
        v vs
    | Max, v :: vs ->
      List.fold_left
        (fun m w -> if Value.compare_total w m > 0 then w else m)
        v vs
    | Avg, vs ->
      Value.Float (numeric_sum vs /. float_of_int (List.length vs))
  in
  List.map
    (fun group ->
      Array.of_list
        (List.map
           (function
             | `Key i ->
               (match group with row :: _ -> row.(i) | [] -> Value.Null)
             | `Agg (fn, operand) -> compute fn operand group)
           cells))
    groups

(* Same constructor and, for floats, the same bits: stricter than
   [Value.equal], which equates Int 1 with Float 1.0. *)
let identical a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let identical_bags xs ys =
  let sort = List.sort Relation.compare_rows in
  List.length xs = List.length ys
  && List.for_all2
       (fun x y -> Array.for_all2 identical x y)
       (sort xs) (sort ys)

let agg_db rows =
  let cat =
    Catalog.add_ddl Catalog.empty
      "CREATE TABLE A (K INT NOT NULL, G FLOAT, H INT, V FLOAT, PRIMARY KEY (K))"
  in
  let db = DB.create cat in
  DB.load db "A" (List.mapi (fun k (g, h, v) -> [| v_int k; g; h; v |]) rows);
  db

(* columns of A: K=0, G=1, H=2, V=3 *)
let agg_select =
  "COUNT(*), COUNT(A.V), SUM(A.V), MIN(A.V), MAX(A.V), AVG(A.V)"

let agg_cells =
  [ `Agg (Count, None); `Agg (Count, Some 3); `Agg (Sum, Some 3);
    `Agg (Min, Some 3); `Agg (Max, Some 3); `Agg (Avg, Some 3) ]

let gen_agg_rows =
  let open QCheck2.Gen in
  (* group keys: NULL, Int n and Float n for the same n, one fraction,
     and a wide range so that the group table grows *)
  let key =
    oneof
      [ pure Value.Null;
        map v_int (int_range 0 2);
        map (fun n -> Value.Float (float_of_int n)) (int_range 0 2);
        pure (Value.Float 0.5);
        map v_int (int_range 3 300);
        map (fun n -> Value.Float (float_of_int n)) (int_range 3 300) ]
  in
  let operand =
    oneof
      [ pure Value.Null;
        map v_int (int_range (-5) 5);
        map (fun n -> Value.Float (float_of_int n)) (int_range (-5) 5);
        map (fun x -> Value.Float x) (float_range (-1e3) 1e3);
        pure (Value.Float 1234567.0);
        pure (Value.Float 1e-3) ]
  in
  list_size (int_range 0 150)
    (triple key (oneof [ pure Value.Null; map v_int (int_range 0 1) ]) operand)

let print_agg_rows rows =
  String.concat "; "
    (List.map
       (fun (g, h, v) ->
         Printf.sprintf "(%s, %s, %s)" (Value.to_string g) (Value.to_string h)
           (Value.to_string v))
       rows)

let prop_hash_matches_reference =
  QCheck2.Test.make ~name:"hash aggregation = sort-then-split reference"
    ~count:300 ~print:print_agg_rows gen_agg_rows (fun rows ->
      let db = agg_db rows in
      let input = (DB.table db "A").Relation.rows in
      let grouped =
        run db
          ("SELECT A.G, A.H, " ^ agg_select ^ " FROM A GROUP BY A.G, A.H")
      in
      let global = run db ("SELECT " ^ agg_select ^ " FROM A") in
      identical_bags grouped.Relation.rows
        (reference_aggregate input ~key:[ 1; 2 ]
           ~cells:(`Key 1 :: `Key 2 :: agg_cells))
      && identical_bags global.Relation.rows
           (reference_aggregate input ~key:[] ~cells:agg_cells))

let test_int_float_one_group () =
  let first_seen rows expected =
    let r = run (agg_db rows) "SELECT A.G, COUNT(*) FROM A GROUP BY A.G" in
    match r.Relation.rows with
    | [ [| g; n |] ] ->
      Alcotest.(check bool) "key is the first-seen value" true
        (identical g expected);
      Alcotest.(check bool) "both rows counted" true (identical n (v_int 2))
    | _ -> Alcotest.fail "expected one group"
  in
  first_seen
    [ (Value.Float 1.0, Value.Null, Value.Null); (v_int 1, Value.Null, Value.Null) ]
    (Value.Float 1.0);
  first_seen
    [ (v_int 1, Value.Null, Value.Null); (Value.Float 1.0, Value.Null, Value.Null) ]
    (v_int 1)

let test_first_seen_order () =
  let db = small_db () in
  let r = run db "SELECT T.G, COUNT(*) FROM T GROUP BY T.G" in
  Alcotest.(check (list (Alcotest.testable Value.pp Value.equal_null)))
    "groups in order of first appearance"
    [ v_str "a"; v_str "b"; Value.Null ]
    (List.map (fun row -> row.(0)) r.Relation.rows)

let test_grouping_sorts_nothing () =
  let db = small_db () in
  let config = Exec.default_config () in
  ignore
    (Exec.run_sql ~config db ~hosts:[]
       "SELECT T.G, COUNT(*) FROM T GROUP BY T.G");
  let st = config.Exec.stats in
  Alcotest.(check int) "no sort" 0 st.Engine.Stats.sorted_rows;
  Alcotest.(check int) "no comparisons" 0 st.Engine.Stats.comparisons;
  Alcotest.(check int) "one hash probe per input row" 6
    st.Engine.Stats.hash_probes

(* ---- analysis and rewrite ---- *)

let test_grouped_distinct_analysis () =
  (* grouped output is keyed by the grouping columns *)
  let yes =
    Sql.Parser.parse_query_spec
      "SELECT DISTINCT S.SCITY, COUNT(*) FROM SUPPLIER S GROUP BY S.SCITY"
  in
  Alcotest.(check bool) "DISTINCT redundant over grouped output" true
    (Uniqueness.Fd_analysis.distinct_is_redundant catalog yes);
  (* selecting a strict subset of the grouping columns is not covered *)
  let no =
    Sql.Parser.parse_query_spec
      "SELECT DISTINCT S.SCITY, COUNT(*) FROM SUPPLIER S GROUP BY S.SCITY, \
       S.SNAME"
  in
  Alcotest.(check bool) "subset of group keys may duplicate" false
    (Uniqueness.Fd_analysis.distinct_is_redundant catalog no)

let test_redundant_group_by_removed () =
  let q =
    Sql.Parser.parse_query
      "SELECT P.SNO, P.PNO, COUNT(*), MAX(P.OEM_PNO) FROM PARTS P GROUP BY \
       P.SNO, P.PNO"
  in
  let o = R.remove_redundant_group_by catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  (match o.R.result with
   | Spec s ->
     Alcotest.(check bool) "no grouping left" true (s.group_by = []);
     (match s.select with
      | Cols [ Col _; Col _; Const (Value.Int 1); Col _ ] -> ()
      | _ -> Alcotest.fail "de-aggregated select shape")
   | Setop _ -> Alcotest.fail "shape");
  (* engine equivalence *)
  let db = Workload.Generator.supplier_db ~suppliers:25 ~parts_per_supplier:4 () in
  let a = Engine.Exec.run_query db ~hosts:[] q in
  let b = Engine.Exec.run_query db ~hosts:[] o.R.result in
  Alcotest.(check bool) "equivalent" true (Relation.equal_bags a b)

let test_group_by_key_through_equality () =
  (* grouping on P.PNO with P.SNO pinned: groups are singletons *)
  let q =
    Sql.Parser.parse_query
      "SELECT P.PNO, SUM(P.OEM_PNO) FROM PARTS P WHERE P.SNO = 7 GROUP BY P.PNO"
  in
  let o = R.remove_redundant_group_by catalog q in
  Alcotest.(check bool) "applied via Type-1 equality" true o.R.applied;
  let db = Workload.Generator.supplier_db ~suppliers:25 ~parts_per_supplier:4 () in
  let a = Engine.Exec.run_query db ~hosts:[] q in
  let b = Engine.Exec.run_query db ~hosts:[] o.R.result in
  Alcotest.(check bool) "equivalent" true (Relation.equal_bags a b)

let test_group_by_not_removed_when_coarse () =
  let q =
    Sql.Parser.parse_query
      "SELECT P.COLOR, COUNT(*) FROM PARTS P GROUP BY P.COLOR"
  in
  let o = R.remove_redundant_group_by catalog q in
  Alcotest.(check bool) "not applied" false o.R.applied

let test_group_by_count_column_blocks () =
  (* COUNT(col) over singleton groups needs a CASE: rewrite must refuse *)
  let q =
    Sql.Parser.parse_query
      "SELECT P.SNO, P.PNO, COUNT(P.OEM_PNO) FROM PARTS P GROUP BY P.SNO, P.PNO"
  in
  let o = R.remove_redundant_group_by catalog q in
  Alcotest.(check bool) "not applied" false o.R.applied

let test_avg_collapse_numeric_equality () =
  (* AVG over a singleton group collapses to the operand; Float 3.0 and
     Int 3 are numerically equal under the engine's total order *)
  let q =
    Sql.Parser.parse_query
      "SELECT P.SNO, P.PNO, AVG(P.PNO) FROM PARTS P GROUP BY P.SNO, P.PNO"
  in
  let o = R.remove_redundant_group_by catalog q in
  Alcotest.(check bool) "applied" true o.R.applied;
  let db = Workload.Generator.supplier_db ~suppliers:10 ~parts_per_supplier:3 () in
  let a = Engine.Exec.run_query db ~hosts:[] q in
  let b = Engine.Exec.run_query db ~hosts:[] o.R.result in
  Alcotest.(check bool) "equivalent" true (Relation.equal_bags a b)

let test_apply_all_includes_group_by () =
  let q =
    Sql.Parser.parse_query
      "SELECT P.SNO, P.PNO, COUNT(*) FROM PARTS P GROUP BY P.SNO, P.PNO"
  in
  let q', outcomes = R.apply_all catalog q in
  Alcotest.(check bool) "applied in pipeline" true
    (List.exists
       (fun o -> o.R.applied && o.R.rule = "group-by removal (section 8 extension)")
       outcomes);
  match q' with
  | Spec s -> Alcotest.(check bool) "no grouping" true (s.group_by = [])
  | Setop _ -> Alcotest.fail "shape"

let () =
  Alcotest.run "groupby"
    [
      ( "parse",
        [
          Alcotest.test_case "GROUP BY + aggregates" `Quick test_parse_group_by;
          Alcotest.test_case "round trip" `Quick test_parse_round_trip;
          Alcotest.test_case "qualified star" `Quick test_parse_qualified_star;
          Alcotest.test_case "COUNT as column name" `Quick test_count_not_reserved;
        ] );
      ( "exec",
        [
          Alcotest.test_case "COUNT(*) per group" `Quick test_count_groups;
          Alcotest.test_case "COUNT(col) skips nulls" `Quick
            test_count_column_skips_nulls;
          Alcotest.test_case "SUM/MIN/MAX/AVG" `Quick test_sum_min_max_avg;
          Alcotest.test_case "NULL keys form one group" `Quick
            test_null_group_keys_collapse;
          Alcotest.test_case "global aggregate" `Quick test_global_aggregate;
          Alcotest.test_case "global over empty input" `Quick
            test_global_aggregate_empty_input;
          Alcotest.test_case "aggregates of all-null column" `Quick
            test_sum_all_nulls_is_null;
          Alcotest.test_case "WHERE before grouping" `Quick
            test_group_by_with_where;
          Alcotest.test_case "grouped join" `Quick test_group_by_join;
          Alcotest.test_case "non-grouped column rejected" `Quick
            test_select_not_in_group_by_rejected;
        ] );
      ( "hash-aggregation",
        [
          QCheck_alcotest.to_alcotest prop_hash_matches_reference;
          Alcotest.test_case "Int 1 and Float 1.0 share a group" `Quick
            test_int_float_one_group;
          Alcotest.test_case "first-seen group order" `Quick
            test_first_seen_order;
          Alcotest.test_case "grouping sorts nothing" `Quick
            test_grouping_sorts_nothing;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "grouped DISTINCT analysis" `Quick
            test_grouped_distinct_analysis;
          Alcotest.test_case "redundant GROUP BY removed" `Quick
            test_redundant_group_by_removed;
          Alcotest.test_case "key through Type-1 equality" `Quick
            test_group_by_key_through_equality;
          Alcotest.test_case "coarse grouping kept" `Quick
            test_group_by_not_removed_when_coarse;
          Alcotest.test_case "COUNT(col) blocks removal" `Quick
            test_group_by_count_column_blocks;
          Alcotest.test_case "AVG collapse numeric equality" `Quick
            test_avg_collapse_numeric_equality;
          Alcotest.test_case "apply_all pipeline" `Quick
            test_apply_all_includes_group_by;
        ] );
    ]
