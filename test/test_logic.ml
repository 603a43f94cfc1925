(* Tests for 3VL predicate evaluation, normal forms, and the equality
   machinery that Algorithm 1 builds on. *)

open Sql.Ast
module Attr = Schema.Attr
module Truth = Sqlval.Truth
module Value = Sqlval.Value
module G = Testsupport.Gen_sql

let truth = Alcotest.testable Truth.pp Truth.equal

let env_of_list cols hosts =
  {
    G.cols =
      List.fold_left
        (fun m (a, v) -> Attr.Map.add (Attr.of_string a) v m)
        Attr.Map.empty cols;
    G.host_vals = hosts;
  }

let eval env p = G.eval env p

(* ---- evaluation ---- *)

let test_eval_null_semantics () =
  let env = env_of_list [ ("R.A", Value.Null); ("R.B", Value.Int 2) ] [] in
  let p s = Sql.Parser.parse_pred s in
  Alcotest.check truth "null = 2 unknown" Truth.Unknown (eval env (p "R.A = 2"));
  Alcotest.check truth "null = null unknown" Truth.Unknown
    (eval env (p "R.A = R.A"));
  Alcotest.check truth "is null" Truth.True (eval env (p "R.A IS NULL"));
  Alcotest.check truth "b is not null" Truth.True (eval env (p "R.B IS NOT NULL"));
  (* unknown AND false = false; unknown OR true = true *)
  Alcotest.check truth "unknown and false" Truth.False
    (eval env (p "R.A = 2 AND R.B = 3"));
  Alcotest.check truth "unknown or true" Truth.True
    (eval env (p "R.A = 2 OR R.B = 2"));
  Alcotest.check truth "not unknown" Truth.Unknown (eval env (p "NOT R.A = 2"))

let test_eval_between_in () =
  let env = env_of_list [ ("R.A", Value.Int 5) ] [] in
  let p s = Sql.Parser.parse_pred s in
  Alcotest.check truth "between hit" Truth.True (eval env (p "R.A BETWEEN 1 AND 10"));
  Alcotest.check truth "between miss" Truth.False (eval env (p "R.A BETWEEN 6 AND 10"));
  Alcotest.check truth "in hit" Truth.True (eval env (p "R.A IN (1, 5, 9)"));
  Alcotest.check truth "in miss" Truth.False (eval env (p "R.A IN (1, 2)"));
  let envn = env_of_list [ ("R.A", Value.Null) ] [] in
  Alcotest.check truth "null between" Truth.Unknown
    (eval envn (p "R.A BETWEEN 1 AND 10"));
  Alcotest.check truth "null in" Truth.Unknown (eval envn (p "R.A IN (1, 2)"))

let test_eval_hosts () =
  let env = env_of_list [ ("R.A", Value.Int 7) ] [ ("X", Value.Int 7) ] in
  Alcotest.check truth "host hit" Truth.True
    (eval env (Sql.Parser.parse_pred "R.A = :X"))

(* ---- the staged evaluator ---- *)

(* A resolver over Gen_sql environments whose host lookups are counted. *)
let counting_resolver env =
  let host_calls = ref 0 in
  ( {
      Logic.Eval.column = (fun a env -> G.lookup_col env a);
      host =
        (fun h ->
          incr host_calls;
          G.lookup_host env h);
      exists = (fun _ _ -> Alcotest.fail "no EXISTS expected");
    },
    host_calls )

(* One compilation serves every row: applied to several column bindings
   (hosts fixed, as in one statement) it agrees with compiling per row. *)
let prop_compile_once =
  QCheck2.Test.make ~name:"one compilation serves every row" ~count:500
    ~print:(fun (p, (env, _)) -> G.pred_env_print (p, env))
    QCheck2.Gen.(
      pair G.pred_gen (pair G.env_gen (list_size (int_range 1 5) G.env_gen)))
    (fun (p, (env, rows)) ->
      List.for_all
        (fun logic ->
          let r, _ = counting_resolver env in
          let compiled = Logic.Eval.compile_pred ~logic r p in
          List.for_all
            (fun row ->
              let row = { row with G.host_vals = env.G.host_vals } in
              Truth.equal (compiled row)
                (Logic.Eval.eval_pred_simple ~logic
                   ~lookup_col:(G.lookup_col row) ~lookup_host:(G.lookup_host row)
                   p))
            rows)
        [ Sqlval.Logic_mode.L3; Sqlval.Logic_mode.L2 ])

let test_hosts_resolve_lazily () =
  let env = env_of_list [ ("R.A", Value.Int 7) ] [ ("X", Value.Int 7) ] in
  let r, host_calls = counting_resolver env in
  let p = Sql.Parser.parse_pred "R.A = :X" in
  let compiled = Logic.Eval.compile_pred r p in
  Alcotest.(check int) "compiling looks up no host" 0 !host_calls;
  Alcotest.check truth "first row" Truth.True (compiled env);
  Alcotest.check truth "second row" Truth.True (compiled env);
  Alcotest.(check int) "one lookup per reference" 1 !host_calls;
  let unbound =
    Logic.Eval.compile_pred
      { r with Logic.Eval.host = (fun h -> raise (Logic.Eval.Unbound_host h)) }
      (Sql.Parser.parse_pred "R.A = :MISSING")
  in
  for _ = 1 to 2 do
    match unbound env with
    | exception Logic.Eval.Unbound_host "MISSING" -> ()
    | _ -> Alcotest.fail "an unbound host raises on every evaluation"
  done

(* An EXISTS is compiled once and evaluated on every row, whatever the
   other side of its AND / OR yields. *)
let test_exists_compiled_once () =
  let compiled = ref 0 and evaluated = ref 0 in
  let r =
    {
      Logic.Eval.column = (fun _ () -> Value.Null);
      host = (fun _ -> Value.Null);
      exists =
        (fun _ ->
          incr compiled;
          fun () ->
            incr evaluated;
            true);
    }
  in
  let p =
    Sql.Parser.parse_pred
      "(FALSE AND EXISTS (SELECT * FROM T)) OR (TRUE OR EXISTS (SELECT * FROM T))"
  in
  let test = Logic.Eval.compile_pred r p in
  Alcotest.(check int) "compiled once each" 2 !compiled;
  for _ = 1 to 3 do
    Alcotest.check truth "true" Truth.True (test ())
  done;
  Alcotest.(check int) "both evaluated on every row" 6 !evaluated

(* ---- normal forms preserve 3VL truth ---- *)

let prop_preserves env_eval name transform =
  QCheck2.Test.make ~name ~count:1000 ~print:G.pred_env_print
    G.pred_and_env_gen (fun (p, env) ->
      Truth.equal (env_eval env p) (env_eval env (transform p)))

let prop_expand = prop_preserves eval "NNF expansion preserves 3VL truth" Logic.Norm.expand

let prop_cnf =
  prop_preserves eval "CNF conversion preserves 3VL truth" (fun p ->
      Logic.Norm.pred_of_cnf (Logic.Norm.cnf_of_pred p))

let prop_dnf =
  prop_preserves eval "DNF conversion preserves 3VL truth" (fun p ->
      Logic.Norm.pred_of_dnf (Logic.Norm.dnf_of_pred p))

let prop_simplify = prop_preserves eval "simplify preserves 3VL truth" Logic.Norm.simplify

(* budgeted entry points: when the conversion fits the budget it must be
   truth-preserving; a tiny budget must fall back soundly (we keep p) *)
let prop_cnf_budgeted =
  prop_preserves eval "budgeted CNF preserves truth when within budget"
    (fun p ->
      match Logic.Norm.cnf_of_pred_budgeted ~budget:32 p with
      | Logic.Norm.Within cnf -> Logic.Norm.pred_of_cnf cnf
      | Logic.Norm.Exceeded _ -> p)

let prop_dnf_budgeted =
  prop_preserves eval "budgeted DNF preserves truth when within budget"
    (fun p ->
      match Logic.Norm.dnf_of_pred_budgeted ~budget:32 p with
      | Logic.Norm.Within dnf -> Logic.Norm.pred_of_dnf dnf
      | Logic.Norm.Exceeded _ -> p)

(* The odometer stream does no cross-conjunct dedup, so a random CNF's
   full product can be astronomically large; cap it and keep p on
   overflow, mirroring how Algorithm 1 consumes the stream. *)
let prop_dnf_stream =
  prop_preserves eval "streaming DNF of the CNF preserves truth" (fun p ->
      match
        Logic.Norm.dnf_of_cnf_budgeted ~budget:512 (Logic.Norm.cnf_of_pred p)
      with
      | Logic.Norm.Within dnf -> Logic.Norm.pred_of_dnf dnf
      | Logic.Norm.Exceeded _ -> p)

let prop_cnf_shape =
  QCheck2.Test.make ~name:"CNF clauses contain only literals" ~count:300
    ~print:G.pred_print G.pred_gen (fun p ->
      List.for_all
        (List.for_all (function
          | And _ | Or _ -> false
          | Not (Exists _) -> true
          | Not _ -> false
          | _ -> true))
        (Logic.Norm.cnf_of_pred p))

(* ---- the budgeted conversion engine ---- *)

let mkattr s = Attr.of_string s

let test_empty_in_list () =
  (* IN over an empty list is vacuously false; its negation is vacuously
     true — both polarities must normalize to the constant, not to an
     empty disjunction that downstream code misreads *)
  let c = Col (mkattr "R.A") in
  (match Logic.Norm.expand (In_list (c, [])) with
   | Pfalse -> ()
   | p -> Alcotest.failf "positive empty IN-list: %s" (G.pred_print p));
  match Logic.Norm.expand (Not (In_list (c, []))) with
  | Ptrue -> ()
  | p -> Alcotest.failf "negated empty IN-list: %s" (G.pred_print p)

(* OR of [n] two-literal conjunctions with pairwise-distinct atoms: the CNF
   is exactly 2^n distinct clauses, so n = 13 blows the 4096 default *)
let wide_or n =
  let col i = Col (mkattr (Printf.sprintf "R.C%d" i)) in
  let disjunct i =
    And
      (Cmp (Eq, col (2 * i), Const (Value.Int i)),
       Cmp (Eq, col ((2 * i) + 1), Const (Value.Int i)))
  in
  List.fold_left
    (fun acc i -> Or (acc, disjunct i))
    (disjunct 0)
    (List.init (n - 1) (fun i -> i + 1))

let test_budget_exceeded () =
  let p = wide_or 13 in
  (match Logic.Norm.cnf_of_pred_budgeted p with
   | Logic.Norm.Exceeded { budget } ->
     Alcotest.(check int) "default budget" Logic.Norm.default_budget budget
   | Logic.Norm.Within _ -> Alcotest.fail "2^13 clauses must blow 4096");
  Alcotest.(check bool) "evidence miners soundly see no clauses" true
    (Logic.Norm.usable_clauses p = []);
  (* a budget that fits materializes the full distribution: the atoms are
     pairwise distinct, so neither dedup nor subsumption can shrink it *)
  match Logic.Norm.cnf_of_pred_budgeted ~budget:10_000 p with
  | Logic.Norm.Within cnf -> Alcotest.(check int) "8192 clauses" 8192 (List.length cnf)
  | Logic.Norm.Exceeded _ -> Alcotest.fail "a 10k budget suffices for 2^13"

let test_dnf_stream_odometer () =
  let lit i = Cmp (Eq, Col (mkattr (Printf.sprintf "R.L%d" i)), Const (Value.Int i)) in
  Alcotest.(check bool) "rightmost clause varies fastest" true
    (Logic.Norm.dnf_of_cnf [ [ lit 0; lit 1 ]; [ lit 2 ] ]
     = [ [ lit 0; lit 2 ]; [ lit 1; lit 2 ] ]);
  Alcotest.(check bool) "an empty clause kills every conjunct" true
    (Logic.Norm.dnf_of_cnf [ [ lit 0 ]; [] ] = []);
  Alcotest.(check bool) "no clauses is TRUE: one empty conjunct" true
    (Logic.Norm.dnf_of_cnf [] = [ [] ]);
  Alcotest.(check bool) "a literal drawn twice appears once" true
    (Logic.Norm.dnf_of_cnf [ [ lit 0 ]; [ lit 0 ] ] = [ [ lit 0 ] ]);
  (match
     Logic.Norm.dnf_of_cnf_budgeted ~budget:3 [ [ lit 0; lit 1 ]; [ lit 2; lit 3 ] ]
   with
   | Logic.Norm.Exceeded { budget = 3 } -> ()
   | _ -> Alcotest.fail "4 conjuncts must exceed a budget of 3");
  (* the stream never materializes the product: taking 4 of 2^20 is cheap *)
  let big = List.init 20 (fun i -> [ lit (2 * i); lit ((2 * i) + 1) ]) in
  let taken = List.of_seq (Seq.take 4 (Logic.Norm.dnf_seq_of_cnf big)) in
  Alcotest.(check int) "lazy prefix" 4 (List.length taken)

(* random predicates over rows drawn from the difftest instance generator:
   the normal forms must agree with Eval on realistic data (NULLs, strings,
   booleans, empty IN lists), not only the hand-rolled environments above *)
let rand_pred_over rng cols =
  let module R = Schema.Relschema in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let const_for = function
    | R.Tint -> Value.Int (Random.State.int rng 4)
    | R.Tstring -> Value.String (pick [ "a"; "b"; "c" ])
    | R.Tbool -> Value.Bool (Random.State.bool rng)
    | R.Tfloat -> Value.Float (float_of_int (Random.State.int rng 4))
  in
  let atom () =
    let a, ty = pick cols in
    let c = Col a in
    match Random.State.int rng 6 with
    | 0 -> Cmp (pick [ Eq; Ne; Lt; Le; Gt; Ge ], c, Const (const_for ty))
    | 1 ->
      (match List.filter (fun (_, ty') -> ty' = ty) cols with
       | [] -> Cmp (Eq, c, Const (const_for ty))
       | peers -> Cmp (Eq, c, Col (fst (pick peers))))
    | 2 -> if Random.State.bool rng then Is_null c else Is_not_null c
    | 3 ->
      (* 0..2 members: exercises the empty IN-list edge *)
      let n = Random.State.int rng 3 in
      In_list (c, List.init n (fun _ -> const_for ty))
    | 4 when ty = R.Tint ->
      let lo = Random.State.int rng 3 in
      Between (c, Const (Value.Int lo), Const (Value.Int (lo + Random.State.int rng 3)))
    | _ -> Cmp (pick [ Eq; Ne; Lt; Le; Gt; Ge ], c, Const (const_for ty))
  in
  let rec go depth =
    if depth = 0 then atom ()
    else
      match Random.State.int rng 4 with
      | 0 -> And (go (depth - 1), go (depth - 1))
      | 1 -> Or (go (depth - 1), go (depth - 1))
      | 2 -> Not (go (depth - 1))
      | _ -> atom ()
  in
  go 3

let prop_normal_forms_on_instances =
  QCheck2.Test.make
    ~name:"normal forms agree with Eval on difftest instances" ~count:150
    QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ddl = Difftest.Schema_gen.generate ~rng in
      let cat = Difftest.Schema_gen.catalog_of_ddl ddl in
      let tables = Difftest.Instance_gen.tables ~rng ~rows:5 cat in
      List.for_all
        (fun (name, rows) ->
          let def = Catalog.find_exn cat name in
          let cols =
            List.map
              (fun (c : Schema.Relschema.column) ->
                (c.Schema.Relschema.attr, c.Schema.Relschema.ctype))
              (Schema.Relschema.columns def.Catalog.tbl_schema)
          in
          let p = rand_pred_over rng cols in
          let variants =
            [ Logic.Norm.pred_of_cnf (Logic.Norm.cnf_of_pred p);
              Logic.Norm.pred_of_dnf (Logic.Norm.dnf_of_pred p);
              (match
                 Logic.Norm.dnf_of_cnf_budgeted ~budget:512
                   (Logic.Norm.cnf_of_pred p)
               with
              | Logic.Norm.Within dnf -> Logic.Norm.pred_of_dnf dnf
              | Logic.Norm.Exceeded _ -> p);
              (match Logic.Norm.cnf_of_pred_budgeted ~budget:16 p with
               | Logic.Norm.Within cnf -> Logic.Norm.pred_of_cnf cnf
               | Logic.Norm.Exceeded _ -> p);
              (match Logic.Norm.dnf_of_pred_budgeted ~budget:16 p with
               | Logic.Norm.Within dnf -> Logic.Norm.pred_of_dnf dnf
               | Logic.Norm.Exceeded _ -> p) ]
          in
          List.for_all
            (fun row ->
              let binding =
                List.fold_left2
                  (fun m (a, _) v -> Attr.Map.add a v m)
                  Attr.Map.empty cols (Array.to_list row)
              in
              let ev q =
                Logic.Eval.eval_pred_simple
                  ~lookup_col:(fun a ->
                    match Attr.Map.find_opt a binding with
                    | Some v -> v
                    | None -> raise (Logic.Eval.Unbound_column a))
                  ~lookup_host:(fun h -> raise (Logic.Eval.Unbound_host h))
                  q
              in
              let reference = ev p in
              List.for_all (fun q -> Truth.equal reference (ev q)) variants)
            rows)
        tables)

(* ---- equalities ---- *)

let test_classify () =
  let lit s = Sql.Parser.parse_pred s in
  (match Logic.Equalities.of_literal (lit "R.A = 5") with
   | Some (Logic.Equalities.Type1 (_, Logic.Equalities.Const (Value.Int 5))) -> ()
   | _ -> Alcotest.fail "type1 const");
  (match Logic.Equalities.of_literal (lit "R.A = :H") with
   | Some (Logic.Equalities.Type1 (_, Logic.Equalities.Host "H")) -> ()
   | _ -> Alcotest.fail "type1 host");
  (match Logic.Equalities.of_literal (lit "R.A = S.B") with
   | Some (Logic.Equalities.Type2 (_, _)) -> ()
   | _ -> Alcotest.fail "type2");
  (match Logic.Equalities.of_literal (lit "R.A < 5") with
   | None -> ()
   | Some _ -> Alcotest.fail "non-equality");
  match Logic.Equalities.of_literal (lit "5 = R.A") with
  | Some (Logic.Equalities.Type1 _) -> ()
  | _ -> Alcotest.fail "reversed const"

let attr s = Attr.of_string s

let test_closure () =
  let eqs =
    [ Logic.Equalities.Type2 (attr "R.A", attr "S.B");
      Logic.Equalities.Type2 (attr "S.B", attr "S.C");
      Logic.Equalities.Type1 (attr "T.D", Logic.Equalities.Const (Value.Int 1)) ]
  in
  let seed = Attr.Set.singleton (attr "R.A") in
  let cl = Logic.Equalities.closure seed eqs in
  Alcotest.(check bool) "A in" true (Attr.Set.mem (attr "R.A") cl);
  Alcotest.(check bool) "B via type2" true (Attr.Set.mem (attr "S.B") cl);
  Alcotest.(check bool) "C transitively" true (Attr.Set.mem (attr "S.C") cl);
  Alcotest.(check bool) "D via type1" true (Attr.Set.mem (attr "T.D") cl);
  Alcotest.(check int) "size" 4 (Attr.Set.cardinal cl)

let test_closure_reverse_direction () =
  (* closure must propagate both ways across Type-2 equalities *)
  let eqs = [ Logic.Equalities.Type2 (attr "S.B", attr "R.A") ] in
  let cl = Logic.Equalities.closure (Attr.Set.singleton (attr "R.A")) eqs in
  Alcotest.(check bool) "B reached" true (Attr.Set.mem (attr "S.B") cl)

let test_classes () =
  let eqs =
    [ Logic.Equalities.Type2 (attr "R.A", attr "S.B");
      Logic.Equalities.Type1 (attr "S.B", Logic.Equalities.Const (Value.Int 9));
      Logic.Equalities.Type2 (attr "S.C", attr "T.D") ]
  in
  let c = Logic.Equalities.Classes.build eqs in
  Alcotest.(check bool) "A~B" true
    (Logic.Equalities.Classes.same c (attr "R.A") (attr "S.B"));
  Alcotest.(check bool) "A!~C" false
    (Logic.Equalities.Classes.same c (attr "R.A") (attr "S.C"));
  (match Logic.Equalities.Classes.binding c (attr "R.A") with
   | Some (Logic.Equalities.Const (Value.Int 9)) -> ()
   | _ -> Alcotest.fail "A bound to 9 through its class");
  match Logic.Equalities.Classes.binding c (attr "S.C") with
  | None -> ()
  | Some _ -> Alcotest.fail "C unbound"

let test_split () =
  let lits =
    [ Sql.Parser.parse_pred "R.A = 1";
      Sql.Parser.parse_pred "R.A < 5";
      Sql.Parser.parse_pred "R.B = S.C" ]
  in
  let eqs, rest = Logic.Equalities.split lits in
  Alcotest.(check int) "two equalities" 2 (List.length eqs);
  Alcotest.(check int) "one residual" 1 (List.length rest)

(* ---- the one closure engine against a reference fixpoint ---- *)

(* The reference: re-scan the whole (lhs, rhs) list until a sweep adds
   nothing. Quadratic and obviously correct. *)
let sweep_closure pairs seed =
  let rec go cur =
    let next =
      List.fold_left
        (fun acc (lhs, rhs) ->
          if Attr.Set.subset lhs acc then Attr.Set.union rhs acc else acc)
        cur pairs
    in
    if Attr.Set.equal next cur then cur else go next
  in
  go seed

let closure_attrs =
  Array.init 12 (fun i -> Attr.of_string (Printf.sprintf "R%d.C%d" (i mod 3) i))

let random_attr rng =
  closure_attrs.(Random.State.int rng (Array.length closure_attrs))

let random_set rng n =
  Attr.set_of_list (List.init (Random.State.int rng (n + 1)) (fun _ -> random_attr rng))

(* The attributes named by the [fact] entries of the given closure nodes:
   one attribute, or a printed set "{A, B}". *)
let narrated ~rule ~fact nodes =
  let names v =
    if v.[0] <> '{' then [ v ]
    else String.split_on_char ',' (String.sub v 1 (String.length v - 2))
  in
  List.fold_left
    (fun acc (n : Trace.node) ->
      if n.Trace.rule <> rule then acc
      else
        List.fold_left
          (fun acc s ->
            match String.trim s with
            | "" -> acc
            | s -> Attr.Set.add (Attr.of_string s) acc)
          acc
          (names (List.assoc fact n.Trace.facts)))
    Attr.Set.empty nodes

(* Traced, untraced with the memo off, untraced with the memo on (a miss,
   then a hit) and the reference all agree, and the narration accounts
   for exactly the acquired attributes. *)
let agrees ~closure ~narration ~reference seed =
  let trace = Trace.make () in
  let traced = closure ~trace seed in
  let off =
    Cache.Runtime.with_enabled false (fun () -> closure ~trace:Trace.disabled seed)
  in
  let miss, hit =
    Cache.Runtime.with_enabled true (fun () ->
        let m = closure ~trace:Trace.disabled seed in
        (m, closure ~trace:Trace.disabled seed))
  in
  List.for_all (Attr.Set.equal reference) [ traced; off; miss; hit ]
  && Attr.Set.equal (narration (Trace.nodes trace)) (Attr.Set.diff reference seed)

let prop_fd_closure_agrees =
  QCheck2.Test.make
    ~name:"FD closure: traced = untraced memo off/on = reference"
    ~count:500 QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let fds =
        List.init (Random.State.int rng 10) (fun _ ->
            { Fd.Fdset.lhs = random_set rng 3; rhs = random_set rng 3 })
      in
      let start = random_set rng 4 in
      agrees
        ~closure:(fun ~trace xs -> Fd.Fdset.closure ~trace (Fd.Fdset.of_list fds) xs)
        ~narration:(narrated ~rule:"fd.closure-step" ~fact:"acquired")
        ~reference:
          (sweep_closure
             (List.map (fun (f : Fd.Fdset.fd) -> (f.Fd.Fdset.lhs, f.Fd.Fdset.rhs)) fds)
             start)
        start)

let prop_equality_closure_agrees =
  QCheck2.Test.make
    ~name:"equality closure: traced = untraced memo off/on = reference"
    ~count:500 QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let eqs =
        List.init (Random.State.int rng 16) (fun _ ->
            if Random.State.int rng 4 = 0 then
              Logic.Equalities.Type1 (random_attr rng, Logic.Equalities.Const (Value.Int 1))
            else Logic.Equalities.Type2 (random_attr rng, random_attr rng))
      in
      let pairs =
        List.concat_map
          (function
            | Logic.Equalities.Type1 (a, _) -> [ (Attr.Set.empty, Attr.Set.singleton a) ]
            | Logic.Equalities.Type2 (a, b) ->
              [ (Attr.Set.singleton a, Attr.Set.singleton b);
                (Attr.Set.singleton b, Attr.Set.singleton a) ])
          eqs
      in
      let start = random_set rng 4 in
      let narration nodes =
        Attr.Set.union
          (narrated ~rule:"closure.type1" ~fact:"bound" nodes)
          (narrated ~rule:"closure.type2" ~fact:"bound" nodes)
      in
      agrees
        ~closure:(fun ~trace v -> Logic.Equalities.closure ~trace v eqs)
        ~narration ~reference:(sweep_closure pairs start) start)

(* ---- two-valued logic by translation ---- *)

(* The translation, run under three-valued logic, selects the rows the
   original selects under the engine's two-valued evaluator, on
   generated cases whose instances hold NULLs. *)
let prop_two_valued_translation =
  QCheck2.Test.make
    ~name:"2VL translation under 3VL is bag-equal to the original under 2VL"
    ~count:300 QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let c = Difftest.Case.generate ~rng () in
      let run logic db hosts q =
        let config = { (Engine.Exec.default_config ()) with Engine.Exec.logic } in
        Engine.Exec.run_query ~config db ~hosts q
      in
      let translated = Logic.Two_valued.query c.Difftest.Case.query in
      List.for_all
        (fun (i, inst) ->
          let db = Difftest.Case.database ~index:i c inst in
          let hosts = inst.Difftest.Case.hosts in
          Engine.Relation.equal_bags
            (run Sqlval.Logic_mode.L2 db hosts c.Difftest.Case.query)
            (run Sqlval.Logic_mode.L3 db hosts translated))
        (List.mapi (fun i inst -> (i, inst)) c.Difftest.Case.instances))

(* NOT pushes through classically; each negated atom admits its NULL
   operands, and a NULL in an IN list matches nothing. *)
let test_two_valued_shapes () =
  List.iter
    (fun (src, want) ->
      Alcotest.(check string) src want
        (Sql.Pretty.pred (Logic.Two_valued.pred (Sql.Parser.parse_pred src))))
    [ ("NOT (T.K <> 5)", "T.K = 5 OR T.K IS NULL");
      ( "NOT (T.K <> 5 OR T.V <> 1)",
        "(T.K = 5 OR T.K IS NULL) AND (T.V = 1 OR T.V IS NULL)" );
      ( "NOT (T.K BETWEEN 1 AND :H)",
        "((T.K < 1 OR T.K > :H) OR T.K IS NULL) OR :H IS NULL" );
      ("NOT (T.K IN (1, NULL))", "T.K <> 1 OR T.K IS NULL");
      ("NOT (T.K IN (NULL))", "TRUE");
      ("NOT (T.K = NULL)", "TRUE");
      ("NOT (T.K IS NULL AND T.V < 2)", "T.K IS NOT NULL OR (T.V >= 2 OR T.V IS NULL)");
      ( "NOT EXISTS (SELECT * FROM S WHERE NOT (S.A = T.K))",
        "NOT EXISTS (SELECT ALL * FROM S WHERE (S.A <> T.K OR S.A IS NULL) \
         OR T.K IS NULL)" ) ]

let () =
  Alcotest.run "logic"
    [
      ( "eval",
        [
          Alcotest.test_case "null semantics" `Quick test_eval_null_semantics;
          Alcotest.test_case "between/in" `Quick test_eval_between_in;
          Alcotest.test_case "host variables" `Quick test_eval_hosts;
        ] );
      ( "staged",
        [
          QCheck_alcotest.to_alcotest prop_compile_once;
          Alcotest.test_case "hosts resolve lazily" `Quick
            test_hosts_resolve_lazily;
          Alcotest.test_case "EXISTS compiled once, always evaluated" `Quick
            test_exists_compiled_once;
        ] );
      ( "normal-forms",
        List.map QCheck_alcotest.to_alcotest
          [ prop_expand; prop_cnf; prop_dnf; prop_simplify; prop_cnf_shape;
            prop_cnf_budgeted; prop_dnf_budgeted; prop_dnf_stream;
            prop_normal_forms_on_instances ] );
      ( "budget-engine",
        [
          Alcotest.test_case "empty IN-list, both polarities" `Quick
            test_empty_in_list;
          Alcotest.test_case "budget blowout" `Quick test_budget_exceeded;
          Alcotest.test_case "streaming DNF odometer" `Quick
            test_dnf_stream_odometer;
        ] );
      ( "closure-engines",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fd_closure_agrees; prop_equality_closure_agrees ] );
      ( "equalities",
        [
          Alcotest.test_case "classification" `Quick test_classify;
          Alcotest.test_case "closure" `Quick test_closure;
          Alcotest.test_case "closure is symmetric" `Quick
            test_closure_reverse_direction;
          Alcotest.test_case "equivalence classes" `Quick test_classes;
          Alcotest.test_case "split" `Quick test_split;
        ] );
      ( "two-valued",
        [ Alcotest.test_case "translated shapes" `Quick test_two_valued_shapes;
          QCheck_alcotest.to_alcotest prop_two_valued_translation ] );
    ]
