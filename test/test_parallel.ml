(* Tests for the work-stealing domain pool and the epoch-scoped caches:
   map's submission-order determinism, exception capture across domains
   (including tasks that raise after being stolen), pool reuse, the
   jobs = 1 sequential degeneration, steal traffic under skewed chunk
   costs, epoch-merge cache equivalence across jobs levels, and a
   multi-domain interner stress run. *)

module Pool = Parallel.Pool
module L = Cache.Lru

exception Boom of int

(* results arrive in submission order, not completion order: give the
   early items the most work so completion order would be reversed *)
let test_map_submission_order () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let n = 200 in
  let inputs = List.init n Fun.id in
  let slow i =
    let spins = (n - i) * 50 in
    let acc = ref 0 in
    for k = 1 to spins do
      acc := (!acc * 7) + k
    done;
    ignore !acc;
    i * i
  in
  Alcotest.(check (list int))
    "map keeps submission order"
    (List.map (fun i -> i * i) inputs)
    (Pool.map pool slow inputs)

let test_map_empty_and_small () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  Alcotest.(check (list int)) "empty" [] (Pool.map pool (fun x -> x) []);
  Alcotest.(check (list int)) "fewer items than domains" [ 2; 4 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2 ])

(* an exception raised inside a worker re-raises on the submitting domain;
   the pool stays usable afterwards *)
let test_exception_propagation () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  (match Pool.map pool (fun i -> if i = 17 then raise (Boom i) else i)
           (List.init 64 Fun.id)
   with
  | _ -> Alcotest.fail "expected Boom to re-raise"
  | exception Boom 17 -> ());
  Alcotest.(check (list int)) "pool survives a raising batch" [ 1; 2; 3 ]
    (Pool.map pool (fun x -> x) [ 1; 2; 3 ]);
  (* async/await propagate too *)
  let fut = Pool.async pool (fun () -> raise (Boom 3)) in
  (match Pool.await pool fut with
  | _ -> Alcotest.fail "expected Boom from await"
  | exception Boom 3 -> ())

let test_pool_reuse_across_batches () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  for round = 1 to 5 do
    let xs = List.init 40 (fun i -> (round * 100) + i) in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d" round)
      (List.map succ xs)
      (Pool.map pool succ xs)
  done

(* jobs = 1 spawns nothing: every task runs inline on the calling domain,
   and a future is already resolved when async returns *)
let test_jobs1_degenerates_to_sequential () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
  let self = Domain.self () in
  let ran_on = ref None in
  let fut = Pool.async pool (fun () -> ran_on := Some (Domain.self ())) in
  Alcotest.(check bool) "async ran inline" true (Pool.ready fut);
  Pool.await pool fut;
  Alcotest.(check bool) "on the calling domain" true (!ran_on = Some self);
  (* side effects happen in list order, like List.map *)
  let order = ref [] in
  ignore
    (Pool.map pool
       (fun i ->
         order := i :: !order;
         i)
       [ 1; 2; 3; 4 ]);
  Alcotest.(check (list int)) "left-to-right effects" [ 1; 2; 3; 4 ]
    (List.rev !order)

let test_create_rejects_zero_jobs () =
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

(* ---- work stealing ---- *)

let spin n =
  let acc = ref 0 in
  for k = 1 to n do
    acc := (!acc * 7) + k
  done;
  ignore !acc

(* Skewed chunk costs: the first few chunks carry almost all the work, so
   whoever draws them keeps running while everyone else drains their
   deque and steals. Steal timing is scheduler-dependent, so the check
   retries a few rounds — but the result order must hold on every round,
   steals or not. *)
let test_steal_under_skewed_chunks () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let n = 512 in
  let inputs = List.init n Fun.id in
  let expected = List.map (fun i -> i * 3) inputs in
  let skewed i =
    spin (if i < 16 then 400_000 else 50);
    i * 3
  in
  let rounds = ref 0 in
  while (Pool.stats pool).Pool.steals = 0 && !rounds < 50 do
    incr rounds;
    Alcotest.(check (list int)) "order preserved under skew" expected
      (Pool.map ~chunks:64 pool skewed inputs)
  done;
  let s = Pool.stats pool in
  Alcotest.(check bool)
    (Printf.sprintf "steals observed (after %d rounds)" !rounds)
    true
    (s.Pool.steals > 0);
  (* steal-half migrates at least one task per successful steal *)
  Alcotest.(check bool) "stolen_tasks >= steals" true
    (s.Pool.stolen_tasks >= s.Pool.steals);
  Alcotest.(check bool) "tasks counted" true (s.Pool.tasks >= 64)

let test_stats_zero_at_jobs1 () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  ignore (Pool.map pool succ (List.init 100 Fun.id));
  let s = Pool.stats pool in
  Alcotest.(check int) "no steals sequentially" 0 s.Pool.steals;
  Alcotest.(check int) "no migrated tasks" 0 s.Pool.stolen_tasks

(* Regression for the awaiting-helper deadlock: a task that raises —
   possibly after being stolen, which the skew makes likely — must both
   re-raise at the submitter and wake every domain awaiting the batch.
   Before outcome publication and completion accounting became a single
   atomic step, a raise on a stolen task could leave helpers asleep. The
   many rounds make the steal/raise interleaving all but certain to
   occur; a deadlock here hangs the test rather than failing it, which is
   exactly what CI's timeout is for. *)
let test_raise_after_steal_no_deadlock () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  for round = 1 to 20 do
    (match
       Pool.map ~chunks:32 pool
         (fun i ->
           if i = 100 then raise (Boom i);
           spin (if i < 8 then 100_000 else 10);
           i)
         (List.init 256 Fun.id)
     with
    | _ -> Alcotest.fail "expected Boom to re-raise"
    | exception Boom 100 -> ());
    (* no helper may be left awaiting the failed batch *)
    Alcotest.(check (list int))
      (Printf.sprintf "pool fully usable after raise, round %d" round)
      [ 2; 4; 6 ]
      (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])
  done

(* ---- epoch-merge cache equivalence ---- *)

let catalog = Workload.Paper_schema.catalog ()

let epoch_base_queries =
  [ "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 's1'";
    "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
    "SELECT DISTINCT P.PNO, P.COLOR FROM PARTS P WHERE P.PNO = 'p3'";
    "SELECT DISTINCT P.OEM_PNO FROM PARTS P WHERE P.OEM_PNO = 7";
    "SELECT DISTINCT S.SNAME FROM SUPPLIER S" ]

(* Run a workload through the verdict cache + closure memo in two epochs
   (cold then warm) and report everything observable: verdicts in order,
   verdict counters, closure-memo counter deltas, entry count. *)
let run_epoch_workload ~jobs epoch_workload =
  Cache.Runtime.with_enabled true @@ fun () ->
  Cache.Runtime.clear ();
  let memo0 = Cache.Runtime.counters () in
  let cache = Analysis_cache.create () in
  Pool.with_pool ~jobs @@ fun pool ->
  let one_epoch () =
    Analysis_cache.epoch cache (fun () ->
        Pool.map pool
          (fun sql ->
            match Sql.Parser.parse_query sql with
            | Sql.Ast.Spec s ->
              let a =
                Uniqueness.Algorithm1.distinct_is_redundant ~cache catalog s
              in
              let f =
                Uniqueness.Fd_analysis.distinct_is_redundant ~cache catalog s
              in
              (a, f)
            | _ -> Alcotest.fail "workload must be plain specs")
          epoch_workload)
  in
  let cold = one_epoch () in
  let warm = one_epoch () in
  let v = Analysis_cache.counters cache in
  let m = Cache.Runtime.counters () in
  ( cold,
    warm,
    (v.L.c_hits, v.L.c_misses, Analysis_cache.length cache),
    (m.L.c_hits - memo0.L.c_hits, m.L.c_misses - memo0.L.c_misses) )

(* merged hit-counts at jobs = 4 must equal the sequential hit-counts at
   jobs = 1 on the same workload — the epoch merge's defining property.
   The workload repeats every query 8 times inside each epoch: verdict
   accounting (one lookup per request, hit iff the key was in the frozen
   shared table) is scheduling-independent even then. *)
let test_epoch_merge_counter_equivalence () =
  let workload =
    List.concat_map
      (fun sql -> List.init 8 (fun _ -> sql))
      epoch_base_queries
  in
  let cold1, warm1, verdicts1, _ = run_epoch_workload ~jobs:1 workload in
  let cold4, warm4, verdicts4, _ = run_epoch_workload ~jobs:4 workload in
  let verdict_list = Alcotest.(list (pair bool bool)) in
  Alcotest.check verdict_list "cold verdicts identical" cold1 cold4;
  Alcotest.check verdict_list "warm verdicts identical" warm1 warm4;
  Alcotest.(check (triple int int int))
    "verdict hits/misses/entries identical" verdicts1 verdicts4;
  (* and the warm epoch must actually have hit: every verdict the cold
     epoch stored is shared (and frozen) by the time the warm one runs *)
  let hits, _, entries = verdicts1 in
  Alcotest.(check bool) "warm epoch produced hits" true (hits >= entries);
  Alcotest.(check bool) "cold epoch stored entries" true (entries > 0)

(* With each query appearing once per epoch — the shape of a real batch
   file — the closure-memo counters are deterministic too: every analysis
   runs exactly once per cold epoch, so memo traffic cannot depend on
   which domain ran it. (With intra-epoch duplicates only the verdict
   counters are guaranteed; a duplicate landing on two domains is
   analyzed by both before the merge dedups the entries.) *)
let test_epoch_closure_memo_equivalence () =
  let cold1, warm1, verdicts1, memo1 =
    run_epoch_workload ~jobs:1 epoch_base_queries
  in
  let cold4, warm4, verdicts4, memo4 =
    run_epoch_workload ~jobs:4 epoch_base_queries
  in
  let verdict_list = Alcotest.(list (pair bool bool)) in
  Alcotest.check verdict_list "cold verdicts identical" cold1 cold4;
  Alcotest.check verdict_list "warm verdicts identical" warm1 warm4;
  Alcotest.(check (triple int int int))
    "verdict hits/misses/entries identical" verdicts1 verdicts4;
  Alcotest.(check (pair int int)) "closure-memo hit/miss deltas identical"
    memo1 memo4

(* ---- interner under concurrency ---- *)

(* the interner allocates dense, stable ids when four domains intern
   overlapping attribute sets concurrently *)
let test_interner_stress () =
  let attrs_per_domain = 500 in
  let domains = 4 in
  Pool.with_pool ~jobs:domains @@ fun pool ->
  let worker d =
    let base = d * attrs_per_domain / 2 in
    List.init attrs_per_domain (fun i ->
        let a =
          Schema.Attr.of_string (Printf.sprintf "STRESS.C%d" (base + i))
        in
        let id = Cache.Interner.id a in
        if not (Schema.Attr.equal (Cache.Interner.attr id) a) then
          Alcotest.fail "interned id resolves to the wrong attribute";
        (a, id))
  in
  let pairs = List.concat (Pool.map pool worker (List.init domains Fun.id)) in
  (* same attribute always got the same id, across all domains *)
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (a, id) ->
      let key = Schema.Attr.to_string a in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.add tbl key id
      | Some id' ->
        if id <> id' then
          Alcotest.fail (Printf.sprintf "%s interned twice: %d and %d" key id id'))
    pairs

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "map keeps submission order" `Quick
            test_map_submission_order;
          Alcotest.test_case "empty and small inputs" `Quick
            test_map_empty_and_small;
          Alcotest.test_case "worker exception re-raises at the submitter"
            `Quick test_exception_propagation;
          Alcotest.test_case "reusable across batches" `Quick
            test_pool_reuse_across_batches;
          Alcotest.test_case "jobs=1 is the sequential path" `Quick
            test_jobs1_degenerates_to_sequential;
          Alcotest.test_case "rejects jobs < 1" `Quick
            test_create_rejects_zero_jobs ] );
      ( "stealing",
        [ Alcotest.test_case "steals under skewed chunk costs" `Quick
            test_steal_under_skewed_chunks;
          Alcotest.test_case "stats are zero at jobs=1" `Quick
            test_stats_zero_at_jobs1;
          Alcotest.test_case "raise after steal: no helper deadlock" `Quick
            test_raise_after_steal_no_deadlock ] );
      ( "epoch",
        [ Alcotest.test_case "merged counters = sequential counters" `Quick
            test_epoch_merge_counter_equivalence;
          Alcotest.test_case "closure memo deterministic per-epoch-unique"
            `Quick test_epoch_closure_memo_equivalence ] );
      ( "interner",
        [ Alcotest.test_case "4-domain interner stress" `Quick
            test_interner_stress ] ) ]
