(* Parser / pretty-printer tests: the paper's example queries (Examples 1-9)
   must parse into the expected shapes, and printing must round-trip. *)

open Sql.Ast
module Attr = Schema.Attr

let parse = Sql.Parser.parse_query
let parse_spec = Sql.Parser.parse_query_spec

let spec_of = function
  | Spec s -> s
  | Setop _ -> Alcotest.fail "expected a plain query specification"

(* ---- paper examples ---- *)

let example1 =
  "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
   S.SNO = P.SNO AND P.COLOR = 'RED'"

let example2 =
  "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
   S.SNO = P.SNO AND P.COLOR = 'RED'"

let example4 =
  "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P \
   WHERE P.SNO = :SUPPLIER_NO AND S.SNO = P.SNO"

let example7 =
  "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = :SUPPLIER_NAME \
   AND EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART_NO)"

let example9 =
  "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' INTERSECT \
   SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'"

let test_example1 () =
  let q = spec_of (parse example1) in
  Alcotest.(check bool) "distinct" true (q.distinct = Distinct);
  (match q.select with
   | Cols [ Col a; Col b; Col c ] ->
     Alcotest.(check string) "a" "S.SNO" (Attr.to_string a);
     Alcotest.(check string) "b" "P.PNO" (Attr.to_string b);
     Alcotest.(check string) "c" "P.PNAME" (Attr.to_string c)
   | _ -> Alcotest.fail "projection shape");
  Alcotest.(check int) "two tables" 2 (List.length q.from);
  match q.where with
  | And (Cmp (Eq, Col _, Col _), Cmp (Eq, Col _, Const (Sqlval.Value.String "RED")))
    -> ()
  | _ -> Alcotest.fail "where shape"

let test_example4_hosts () =
  let q = spec_of (parse example4) in
  Alcotest.(check (list string)) "hosts" [ "SUPPLIER_NO" ]
    (hosts_of_query_spec q);
  (* unqualified SNAME/PNAME parse as bare columns *)
  match q.select with
  | Cols [ _; Col a; _; Col b ] ->
    Alcotest.(check string) "bare sname" "SNAME" (Attr.to_string a);
    Alcotest.(check string) "bare pname" "PNAME" (Attr.to_string b)
  | _ -> Alcotest.fail "projection shape"

let test_example7_exists () =
  let q = spec_of (parse example7) in
  match q.where with
  | And (Cmp (Eq, _, Host "SUPPLIER_NAME"), Exists sub) ->
    Alcotest.(check bool) "subquery star" true (sub.select = Star);
    Alcotest.(check int) "one table" 1 (List.length sub.from)
  | _ -> Alcotest.fail "where shape"

let test_example9_intersect () =
  match parse example9 with
  | Setop (Intersect, Distinct, Spec a, Spec b) ->
    Alcotest.(check bool) "left all" true (a.distinct = All);
    (match b.where with
     | Or (_, _) -> ()
     | _ -> Alcotest.fail "right where should be a disjunction")
  | _ -> Alcotest.fail "expected INTERSECT"

let test_intersect_all () =
  match parse "SELECT A FROM R INTERSECT ALL SELECT A FROM S" with
  | Setop (Intersect, All, _, _) -> ()
  | _ -> Alcotest.fail "expected INTERSECT ALL"

let test_except () =
  match parse "SELECT A FROM R EXCEPT SELECT A FROM S" with
  | Setop (Except, Distinct, _, _) -> ()
  | _ -> Alcotest.fail "expected EXCEPT"

let test_between_in_isnull () =
  let q =
    parse_spec
      "SELECT * FROM SUPPLIER WHERE SNO BETWEEN 1 AND 499 AND SCITY IN \
       ('Chicago', 'New York', 'Toronto') AND BUDGET IS NOT NULL"
  in
  match conjuncts q.where with
  | [ Between (_, Const (Sqlval.Value.Int 1), Const (Sqlval.Value.Int 499));
      In_list (_, [ _; _; _ ]); Is_not_null _ ] -> ()
  | cs -> Alcotest.failf "unexpected conjuncts: %d" (List.length cs)

let test_not_precedence () =
  (* NOT binds tighter than AND, AND tighter than OR *)
  let p = Sql.Parser.parse_pred "NOT A = 1 AND B = 2 OR C = 3" in
  match p with
  | Or (And (Not (Cmp (Eq, _, _)), Cmp (Eq, _, _)), Cmp (Eq, _, _)) -> ()
  | _ -> Alcotest.fail "precedence shape"

let test_create_table () =
  let ct =
    Sql.Parser.parse_create_table
      "CREATE TABLE SUPPLIER (SNO INT NOT NULL, SNAME VARCHAR(20), SCITY \
       VARCHAR(20), BUDGET FLOAT, STATUS VARCHAR(10), PRIMARY KEY (SNO), \
       CHECK (SNO BETWEEN 1 AND 499), CHECK (SCITY IN ('Chicago', 'New \
       York', 'Toronto')), CHECK (BUDGET <> 0 OR STATUS = 'Inactive'))"
  in
  Alcotest.(check string) "name" "SUPPLIER" ct.ct_name;
  Alcotest.(check int) "cols" 5 (List.length ct.ct_cols);
  let pks =
    List.filter (function C_primary_key _ -> true | _ -> false) ct.ct_constraints
  in
  let checks =
    List.filter (function C_check _ -> true | _ -> false) ct.ct_constraints
  in
  Alcotest.(check int) "one pk" 1 (List.length pks);
  Alcotest.(check int) "three checks" 3 (List.length checks)

let test_create_table_unique () =
  let ct =
    Sql.Parser.parse_create_table
      "CREATE TABLE PARTS (SNO INT, PNO INT, PNAME VARCHAR(20), OEM_PNO INT, \
       COLOR VARCHAR(10), PRIMARY KEY (SNO, PNO), UNIQUE (OEM_PNO), CHECK \
       (SNO BETWEEN 1 AND 499))"
  in
  match ct.ct_constraints with
  | [ C_primary_key [ "SNO"; "PNO" ]; C_unique [ "OEM_PNO" ]; C_check _ ] -> ()
  | _ -> Alcotest.fail "constraint shape"

let test_inline_constraints () =
  let ct =
    Sql.Parser.parse_create_table
      "CREATE TABLE T (A INT PRIMARY KEY, B INT UNIQUE, C INT NOT NULL)"
  in
  match ct.ct_constraints with
  | [ C_primary_key [ "A" ]; C_unique [ "B" ] ] -> ()
  | _ -> Alcotest.fail "inline constraint shape"

let test_string_escape () =
  let p = Sql.Parser.parse_pred "NAME = 'O''Brien'" in
  match p with
  | Cmp (Eq, _, Const (Sqlval.Value.String "O'Brien")) -> ()
  | _ -> Alcotest.fail "string escape"

let test_comments_and_case () =
  let q =
    spec_of
      (parse "select distinct s.sno -- trailing comment\nfrom supplier s")
  in
  Alcotest.(check bool) "distinct" true (q.distinct = Distinct);
  match q.from with
  | [ { table = "SUPPLIER"; corr = Some "S" } ] -> ()
  | _ -> Alcotest.fail "case-insensitive from"

let test_errors () =
  let expect_fail s =
    match parse s with
    | exception Sql.Parser.Parse_error _ -> ()
    | exception Sql.Lexer.Lex_error _ -> ()
    | _ -> Alcotest.failf "expected parse failure for %S" s
  in
  expect_fail "SELECT FROM R";
  expect_fail "SELECT A FROM";
  expect_fail "SELECT A FROM R WHERE";
  expect_fail "SELECT A FROM R WHERE A ="

(* an integer literal beyond the native int range is a lex error at the
   literal's offset, never an escaping [Failure] *)
let test_oversized_int_literal () =
  let sql = "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 99999999999999999999" in
  match parse sql with
  | exception Sql.Lexer.Lex_error (msg, off) ->
    Alcotest.(check string) "message" "integer literal out of range" msg;
    Alcotest.(check int) "offset of the literal" (String.index sql '9') off
  | _ -> Alcotest.fail "expected a lex error"

(* ---- round-trip ---- *)

let round_trip_query s =
  let q1 = parse s in
  let q2 = parse (Sql.Pretty.query q1) in
  Alcotest.(check bool) ("round trip: " ^ s) true (q1 = q2)

let test_round_trip_examples () =
  List.iter round_trip_query
    [ example1; example2; example4; example7; example9;
      "SELECT A FROM R EXCEPT ALL SELECT B FROM S";
      "SELECT * FROM R, S, T WHERE R.A = S.B AND NOT (S.B = T.C OR T.C IS NULL)" ]

let prop_pred_round_trip =
  QCheck2.Test.make ~name:"pretty/parse round-trip on random predicates"
    ~count:500
    ~print:Testsupport.Gen_sql.pred_print Testsupport.Gen_sql.pred_gen
    (fun p ->
      let s = Sql.Pretty.pred p in
      Sql.Parser.parse_pred s = p)

(* A float constant printed by Sql.Pretty must lex back as the same
   float: exponent forms (1e+20, 1e-07) and bare-digit forms of large
   integral floats included. Negative literals are not in the grammar. *)
let float_const_round_trips f =
  let q =
    Sql.Ast.Spec
      { (spec_of (parse "SELECT S.SNO FROM SUPPLIER S")) with
        where =
          Cmp (Eq, Col (Schema.Attr.make ~rel:"S" ~name:"SNO"),
               Const (Sqlval.Value.Float f)) }
  in
  match spec_of (parse (Sql.Pretty.query q)) with
  | { where = Cmp (Eq, _, Const v); _ } ->
    Sqlval.Value.compare_total v (Sqlval.Value.Float f) = 0
    && (match v with Sqlval.Value.Float _ -> true | _ -> false)
  | _ -> false

let test_float_literals () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%h reads back" f) true
        (float_const_round_trips f))
    [ 0.; 0.5; 1e20; 1e-7; 1e15; 1234567890123456.; 2.5e-300; 1.7976931348623157e308 ];
  match spec_of (parse "SELECT A FROM R WHERE A = 2.5E3 AND B = 1e-2") with
  | { where = And (Cmp (_, _, Const (Sqlval.Value.Float a)),
                   Cmp (_, _, Const (Sqlval.Value.Float b))); _ } ->
    Alcotest.(check (float 0.)) "2.5E3" 2500. a;
    Alcotest.(check (float 0.)) "1e-2" 0.01 b
  | _ -> Alcotest.fail "exponent literals lex as floats"

let prop_float_round_trip =
  QCheck2.Test.make ~name:"pretty/parse round-trip on float constants"
    ~count:1000 ~print:(Printf.sprintf "%h")
    QCheck2.Gen.(
      oneof
        [ pfloat;
          map2 (fun m e -> m *. (10. ** float_of_int e))
            (float_range 0. 10.) (int_range (-30) 30);
          map (fun i -> float_of_int i *. 1e15) (int_range 1 100_000) ])
    (fun f ->
      QCheck2.assume (Float.is_finite f);
      float_const_round_trips f)

(* The printer is linear: a left-deep spine of 4*10^4 conjuncts and a
   chain of 4*10^4 NOTs each print in well under a second (joining with
   [^] down the spine took tens of seconds), with the exact text. *)
let test_deep_spines_print_linearly () =
  let n = 40_000 in
  let atom =
    Cmp (Eq, Col (Schema.Attr.make ~rel:"S" ~name:"SNO"),
         Const (Sqlval.Value.Int 1))
  in
  let spine = ref atom and chain = ref atom in
  for _ = 2 to n do
    spine := And (!spine, atom)
  done;
  for _ = 1 to n do
    chain := Not !chain
  done;
  let timed label p expected =
    let t0 = Unix.gettimeofday () in
    let s = Sql.Pretty.pred p in
    let dt = Unix.gettimeofday () -. t0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s printed in %.3f s (< 1 s)" label dt)
      true (dt < 1.0);
    Alcotest.(check bool) (label ^ " text") true (s = expected)
  in
  (* nested operators of equal precedence are parenthesized *)
  let rep k s = String.concat "" (List.init k (fun _ -> s)) in
  timed "AND spine" !spine
    (rep (n - 2) "(" ^ "S.SNO = 1 AND S.SNO = 1"
    ^ rep (n - 2) ") AND S.SNO = 1");
  timed "NOT chain" !chain
    (rep (n - 1) "NOT (" ^ "NOT S.SNO = 1" ^ rep (n - 1) ")")

let () =
  Alcotest.run "sql"
    [
      ( "parse",
        [
          Alcotest.test_case "example 1" `Quick test_example1;
          Alcotest.test_case "example 4 host vars" `Quick test_example4_hosts;
          Alcotest.test_case "example 7 EXISTS" `Quick test_example7_exists;
          Alcotest.test_case "example 9 INTERSECT" `Quick test_example9_intersect;
          Alcotest.test_case "INTERSECT ALL" `Quick test_intersect_all;
          Alcotest.test_case "EXCEPT" `Quick test_except;
          Alcotest.test_case "BETWEEN/IN/IS NULL" `Quick test_between_in_isnull;
          Alcotest.test_case "NOT/AND/OR precedence" `Quick test_not_precedence;
          Alcotest.test_case "CREATE TABLE supplier" `Quick test_create_table;
          Alcotest.test_case "CREATE TABLE parts (UNIQUE)" `Quick
            test_create_table_unique;
          Alcotest.test_case "inline constraints" `Quick test_inline_constraints;
          Alcotest.test_case "string escaping" `Quick test_string_escape;
          Alcotest.test_case "comments and case folding" `Quick
            test_comments_and_case;
          Alcotest.test_case "parse errors" `Quick test_errors;
          Alcotest.test_case "oversized integer literal" `Quick
            test_oversized_int_literal;
          Alcotest.test_case "float literals" `Quick test_float_literals;
          Alcotest.test_case "deep spines print linearly" `Quick
            test_deep_spines_print_linearly;
        ] );
      ( "round-trip",
        Alcotest.test_case "paper examples" `Quick test_round_trip_examples
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_pred_round_trip; prop_float_round_trip ] );
    ]
