(* Order-dependency tests: the shared Dependency_closure functor checked
   against Fdset.closure, the Odset.covers
   axioms (prefix, constants, key skips, equality canonicalization),
   order-provenance survival through projections/filters/products, and
   the NULLS FIRST placement shared byte-for-byte by Operator.sort,
   Operator.merge_join and Database.load_sorted. *)

module Attr = Schema.Attr
module Value = Sqlval.Value
module Fdset = Fd.Fdset
module Odset = Od.Odset
module Operator = Engine.Operator
module DB = Engine.Database
module Exec = Engine.Exec
module G = Testsupport.Gen_sql

let attr s = Attr.of_string s
let attrs l = List.map attr l
let attr_set l = Attr.set_of_list (attrs l)
let fd lhs rhs = Fdset.make_fd (attrs lhs) (attrs rhs)
let od lhs rhs = Odset.make_od (attrs lhs) (attrs rhs)

let set = Alcotest.testable Attr.pp_set Attr.Set.equal

(* ---- Dependency_closure at FDs must reproduce Fdset.closure ---- *)

(* A second instantiation of the functor over the same FD encoding
   Fdset uses internally: set(lhs) acquires set(rhs). Agreement with
   Fdset.closure is what licenses sharing the plumbing across dependency
   classes. *)
module Fd_closure = Cache.Dependency_closure.Make (struct
  type dep = Fdset.fd

  let tag = 'F'

  let encode (d : dep) =
    [ (Cache.Interner.bits_of_set d.Fdset.lhs,
       Cache.Interner.bits_of_set d.Fdset.rhs) ]
end)

let attr_subset_gen : Attr.Set.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  map
    (fun picks ->
      Attr.set_of_list (List.filteri (fun i _ -> List.nth picks i) G.columns))
    (list_repeat (List.length G.columns) bool)

let small_fds_gen : Fdset.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  map
    (fun pairs ->
      Fdset.of_list (List.map (fun (l, r) -> { Fdset.lhs = l; rhs = r }) pairs))
    (list_size (int_range 0 5) (pair attr_subset_gen attr_subset_gen))

let prop_functor_matches_fdset =
  QCheck2.Test.make ~name:"Dependency_closure = Fdset.closure" ~count:300
    QCheck2.Gen.(pair small_fds_gen attr_subset_gen)
    (fun (fds, xs) ->
      Attr.Set.equal
        (Fd_closure.closure (Fdset.to_list fds) xs)
        (Fdset.closure fds xs))

let prop_subsumes_agrees =
  QCheck2.Test.make ~name:"subsumes = subset-of-closure" ~count:300
    QCheck2.Gen.(triple small_fds_gen attr_subset_gen attr_subset_gen)
    (fun (fds, xs, ys) ->
      Bool.equal
        (Fd_closure.subsumes (Fdset.to_list fds) xs ys)
        (Attr.Set.subset ys (Fdset.closure fds xs)))

(* ---- Odset.covers: the elision walk ---- *)

let test_covers_prefix () =
  let stream = attrs [ "T.A"; "T.B"; "T.C" ] in
  Alcotest.(check bool) "prefix covered" true
    (Odset.covers Odset.empty ~stream (attrs [ "T.A"; "T.B" ]));
  Alcotest.(check bool) "full list covered" true
    (Odset.covers Odset.empty ~stream (attrs [ "T.A"; "T.B"; "T.C" ]));
  Alcotest.(check bool) "non-prefix refused" false
    (Odset.covers Odset.empty ~stream (attrs [ "T.B" ]));
  Alcotest.(check bool) "swap refused" false
    (Odset.covers Odset.empty ~stream (attrs [ "T.B"; "T.A" ]))

let test_covers_constant () =
  (* WHERE A = 5 yields the constant FD {} -> A: A is droppable from the
     keys and skippable in the stream *)
  let fds = Fdset.of_list [ fd [] [ "T.A" ] ] in
  Alcotest.(check bool) "constant key skipped" true
    (Odset.covers ~fds Odset.empty ~stream:(attrs [ "T.B" ])
       (attrs [ "T.A"; "T.B" ]));
  Alcotest.(check bool) "constant stream head skipped" true
    (Odset.covers ~fds Odset.empty ~stream:(attrs [ "T.A"; "T.B" ])
       (attrs [ "T.B" ]));
  Alcotest.(check bool) "without the FD both are refused" false
    (Odset.covers Odset.empty ~stream:(attrs [ "T.B" ])
       (attrs [ "T.A"; "T.B" ]))

let test_covers_key_prefix () =
  (* K a candidate key: once consumed, every remaining key column is
     constant within a tie group — ORDER BY K, anything is covered by a
     stream sorted on K alone (the FD→OD interaction) *)
  let fds = Fdset.of_list [ fd [ "T.K" ] [ "T.A"; "T.B" ] ] in
  Alcotest.(check bool) "key prefix determines the rest" true
    (Odset.covers ~fds Odset.empty ~stream:(attrs [ "T.K" ])
       (attrs [ "T.K"; "T.B"; "T.A" ]));
  Alcotest.(check bool) "key must still lead" false
    (Odset.covers ~fds Odset.empty ~stream:(attrs [ "T.K" ])
       (attrs [ "T.B"; "T.K" ]))

let test_covers_equality_classes () =
  (* WHERE B = C: equated columns are interchangeable in order lists *)
  let canon a =
    if Attr.equal a (attr "T.C") then attr "T.B" else a
  in
  Alcotest.(check bool) "equated column substitutes" true
    (Odset.covers ~equiv:canon Odset.empty ~stream:(attrs [ "T.A"; "T.B" ])
       (attrs [ "T.A"; "T.C" ]));
  Alcotest.(check bool) "without the equality it is refused" false
    (Odset.covers Odset.empty ~stream:(attrs [ "T.A"; "T.B" ])
       (attrs [ "T.A"; "T.C" ]))

let test_covers_transitivity () =
  (* a stored OD A |-> B chains through the walk *)
  let ods = Odset.of_list [ od [ "T.A" ] [ "T.B" ] ] in
  Alcotest.(check bool) "stored OD applies" true
    (Odset.covers ods ~stream:(attrs [ "T.A" ]) (attrs [ "T.B" ]));
  Alcotest.(check bool) "reverse not implied" false
    (Odset.covers ods ~stream:(attrs [ "T.B" ]) (attrs [ "T.A" ]));
  Alcotest.(check bool) "implies agrees" true
    (Odset.implies ods (od [ "T.A" ] [ "T.B" ]))

let test_reach_refutes () =
  (* reach is a sound necessary condition: an attribute outside the
     projection can never be covered *)
  let reach =
    Odset.reach
      ~fds:(Fdset.of_list [ fd [ "T.A" ] [ "T.B" ] ])
      (Odset.of_list [ od [ "T.B" ] [ "T.C" ] ])
      (attr_set [ "T.A" ])
  in
  Alcotest.check set "reach saturates FDs and ODs"
    (attr_set [ "T.A"; "T.B"; "T.C" ])
    reach;
  Alcotest.(check bool) "unreachable key refused" false
    (Odset.covers Odset.empty ~stream:(attrs [ "T.A" ]) (attrs [ "T.D" ]))

(* ---- order provenance through the executor ---- *)

let bulk_db rows = Workload.Datagen.bulk_db ~rows ~order:Workload.Datagen.Key_order ()
let bulk_cat = Workload.Datagen.catalog

let stream_order db sql =
  match Exec.order_stream db (Sql.Parser.parse_query sql) with
  | None -> Alcotest.fail ("no ORDER BY stream for: " ^ sql)
  | Some (_, _, order) -> order

let test_projection_duplicate_attrs () =
  (* a projection listing K twice keeps BOTH copies in the provenance:
     the prefix walk must survive duplicate output columns *)
  let db = bulk_db 20 in
  let order =
    stream_order db "SELECT B.K, B.GRP, B.K FROM BULK B ORDER BY B.K"
  in
  (* the second copy is renamed by the projection (K_3) but must still
     appear in the provenance — the prefix walk sees both *)
  Alcotest.(check int) "both K copies in the verified order" 2
    (List.length order);
  Alcotest.(check bool) "the original copy leads" true
    (match order with a :: _ -> String.equal a.Attr.name "K" | [] -> false);
  let choice =
    Optimizer.Order_plan.choose ~database:db bulk_cat
      (Sql.Parser.parse_query "SELECT B.K, B.GRP, B.K FROM BULK B ORDER BY B.K")
  in
  Alcotest.(check bool) "duplicate projection still elides" true
    (choice.Optimizer.Order_plan.impl = Exec.Elided_sort)

let test_filter_preserves_order () =
  let db = bulk_db 20 in
  let order =
    stream_order db "SELECT B.K FROM BULK B WHERE B.GRP = 0 ORDER BY B.K"
  in
  Alcotest.(check bool) "filter keeps the scan order" true
    (match order with a :: _ -> String.equal a.Attr.name "K" | [] -> false)

let test_product_keeps_left_order () =
  let db = Workload.Datagen.pair_db ~rows:10 () in
  let order =
    stream_order db
      "SELECT L.K, R.W FROM LHS L, RHS R ORDER BY L.K"
  in
  (* product order is the left input's: L.K leads even though R is also
     sorted on its own key *)
  Alcotest.(check bool) "left order survives the product" true
    (match order with
     | a :: _ -> Attr.equal a (Attr.make ~rel:"L" ~name:"K")
     | [] -> false)

let test_unique_path_duplicate_projection () =
  (* Operator.unique_path: the prefix positions are every schema position
     whose attribute lies in the order prefix *)
  let schema =
    Schema.Relschema.make
      [ { Schema.Relschema.attr = attr "T.K"; ctype = Schema.Relschema.Tint;
          nullable = false };
        { Schema.Relschema.attr = attr "T.V"; ctype = Schema.Relschema.Tint;
          nullable = true } ]
  in
  let path order = Operator.unique_path schema (attrs order) in
  Alcotest.(check (pair string (array int))) "covering prefix"
    ("sorted-unique", [| 0; 1 |]) (path [ "T.K"; "T.V" ]);
  Alcotest.(check (pair string (array int))) "short prefix covers one"
    ("prefix-unique", [| 0 |]) (path [ "T.K" ]);
  (* a projection listing K twice: the stream arriving at the DISTINCT
     carries both copies in its order, so both positions are covered *)
  let db = bulk_db 20 in
  match
    Exec.distinct_stream db
      (Sql.Parser.parse_query "SELECT DISTINCT B.K, B.GRP, B.K FROM BULK B")
  with
  | None -> Alcotest.fail "no DISTINCT stream"
  | Some (schema, order) ->
    Alcotest.(check (pair string (array int))) "both K copies covered"
      ("prefix-unique", [| 0; 2 |])
      (Operator.unique_path schema order)

(* ---- NULLS FIRST: one comparator everywhere ---- *)

let null_schema =
  Schema.Relschema.make
    [ { Schema.Relschema.attr = attr "T.K"; ctype = Schema.Relschema.Tint;
        nullable = true };
      { Schema.Relschema.attr = attr "T.V"; ctype = Schema.Relschema.Tint;
        nullable = true } ]

let null_rows =
  [ [| Value.Null; Value.Int 7 |];
    [| Value.Null; Value.Int 3 |];
    [| Value.Int 1; Value.Int 5 |];
    [| Value.Int 2; Value.Null |] ]

let test_sort_places_nulls_first () =
  let stats = Engine.Stats.create () in
  let shuffled =
    [ [| Value.Int 2; Value.Null |];
      [| Value.Null; Value.Int 7 |];
      [| Value.Int 1; Value.Int 5 |];
      [| Value.Null; Value.Int 3 |] ]
  in
  let sorted =
    Operator.to_rows
      (Operator.sort ~stats (attrs [ "T.K" ])
         (Operator.of_rows null_schema shuffled))
  in
  (* NULL keys lead, and the sort is stable: the two NULL rows keep
     their input order (7 before 3) *)
  (match sorted with
   | [ a; b; c; d ] ->
     Alcotest.(check bool) "nulls first" true
       (a.(0) = Value.Null && b.(0) = Value.Null);
     Alcotest.(check bool) "stable among equals" true
       (a.(1) = Value.Int 7 && b.(1) = Value.Int 3);
     Alcotest.(check bool) "non-nulls ascending" true
       (c.(0) = Value.Int 1 && d.(0) = Value.Int 2)
   | _ -> Alcotest.fail "sort changed cardinality");
  (* byte-for-byte the comparator of load_sorted: the sorted output is
     accepted as a physical order claim *)
  let cat =
    Catalog.add_ddl Catalog.empty "CREATE TABLE T (K INT, V INT)"
  in
  let db = DB.create cat in
  DB.load_sorted db "T" sorted ~order:[ "K" ];
  Alcotest.(check (list string)) "verified order recorded" [ "K" ]
    (DB.order db "T")

let test_load_sorted_rejects_nulls_last () =
  let cat = Catalog.add_ddl Catalog.empty "CREATE TABLE T (K INT, V INT)" in
  let db = DB.create cat in
  let nulls_last =
    [ [| Value.Int 1; Value.Int 5 |]; [| Value.Null; Value.Int 7 |] ]
  in
  Alcotest.(check bool) "nulls-last load is refused" true
    (try
       DB.load_sorted db "T" nulls_last ~order:[ "K" ];
       false
     with Failure _ -> true)

let test_merge_join_agrees_on_nulls () =
  (* NULL join keys match nothing and are dropped from both sides — the
     merge walk must agree with the hash join byte-for-byte even when
     the (null-first) sorted inputs lead with NULL keys *)
  let probe () = Operator.of_rows ~order:(attrs [ "T.K" ]) null_schema null_rows in
  let build_schema =
    Schema.Relschema.make
      [ { Schema.Relschema.attr = attr "S.K"; ctype = Schema.Relschema.Tint;
          nullable = true };
        { Schema.Relschema.attr = attr "S.W"; ctype = Schema.Relschema.Tint;
          nullable = true } ]
  in
  let build_rows =
    [ [| Value.Null; Value.Int 9 |];
      [| Value.Int 1; Value.Int 11 |];
      [| Value.Int 1; Value.Int 12 |];
      [| Value.Int 3; Value.Int 13 |] ]
  in
  let build () = Operator.of_rows ~order:(attrs [ "S.K" ]) build_schema build_rows in
  let stats = Engine.Stats.create () in
  let merged =
    Operator.to_rows
      (Operator.merge_join ~stats ~probe_key:[ 0 ] ~build_key:[ 0 ]
         (probe ()) (build ()))
  in
  let hashed =
    Operator.to_rows
      (Operator.hash_join ~stats ~probe_key:[ 0 ] ~build_key:[ 0 ]
         (probe ()) (build ()))
  in
  Alcotest.(check int) "merge counted" 1 stats.Engine.Stats.merge_joins;
  Alcotest.(check bool) "merge = hash, list-equal" true
    (List.length merged = List.length hashed
     && List.for_all2 Engine.Relation.equal_rows merged hashed);
  (* only the K=1 probe row matches (twice); NULLs on both sides drop *)
  Alcotest.(check int) "null keys dropped" 2 (List.length merged)

let () =
  Alcotest.run "od"
    [
      ( "dependency-closure",
        List.map QCheck_alcotest.to_alcotest
          [ prop_functor_matches_fdset; prop_subsumes_agrees ] );
      ( "covers",
        [
          Alcotest.test_case "prefix" `Quick test_covers_prefix;
          Alcotest.test_case "constants skip" `Quick test_covers_constant;
          Alcotest.test_case "key prefix determines the rest" `Quick
            test_covers_key_prefix;
          Alcotest.test_case "equality classes substitute" `Quick
            test_covers_equality_classes;
          Alcotest.test_case "stored-OD transitivity" `Quick
            test_covers_transitivity;
          Alcotest.test_case "reach refutes" `Quick test_reach_refutes;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "duplicate projection keeps both copies" `Quick
            test_projection_duplicate_attrs;
          Alcotest.test_case "filter preserves order" `Quick
            test_filter_preserves_order;
          Alcotest.test_case "product keeps left order" `Quick
            test_product_keeps_left_order;
          Alcotest.test_case "unique_path on duplicates" `Quick
            test_unique_path_duplicate_projection;
        ] );
      ( "nulls-first",
        [
          Alcotest.test_case "sort places nulls first, stably" `Quick
            test_sort_places_nulls_first;
          Alcotest.test_case "load_sorted rejects nulls last" `Quick
            test_load_sorted_rejects_nulls_last;
          Alcotest.test_case "merge join agrees on null keys" `Quick
            test_merge_join_agrees_on_nulls;
        ] );
    ]
