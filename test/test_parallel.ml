(* Tests for the domain pool and the epoch-scoped caches: map's
   input-order results and first-in-input-order exception, pool reuse
   after a raising batch, the jobs = 1 sequential degeneration, a waiter
   never left asleep under skewed item costs, epoch-merge cache
   equivalence across jobs levels, and a multi-domain interner stress
   run. *)

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
    (Pool.map pool (fun x -> x) [ 1; 2; 3 ])

let test_pool_reuse_across_batches () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  for round = 1 to 5 do
    let xs = List.init 40 (fun i -> (round * 100) + i) in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d" round)
      (List.map succ xs)
      (Pool.map pool succ xs)
  done

(* jobs = 1 spawns nothing: every item runs inline on the calling domain *)
let test_jobs1_degenerates_to_sequential () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
  let self = Domain.self () in
  Alcotest.(check bool) "on the calling domain" true
    (List.for_all (( = ) self)
       (Pool.map pool (fun _ -> Domain.self ()) [ 1; 2; 3 ]));
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

(* ---- skew and exceptions ---- *)

let spin n =
  let acc = ref 0 in
  for k = 1 to n do
    acc := (!acc * 7) + k
  done;
  ignore !acc

(* Regression for a waiter left asleep: an item that raises while other
   domains still run heavy items must re-raise at the caller, and no
   domain may be left waiting on the failed batch. A hang here fails the
   test through CI's timeout. *)
let test_raise_under_skew () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  for round = 1 to 20 do
    (match
       Pool.map pool
         (fun i ->
           if i = 100 then raise (Boom i);
           spin (if i < 8 then 100_000 else 10);
           i)
         (List.init 256 Fun.id)
     with
    | _ -> Alcotest.fail "expected Boom to re-raise"
    | exception Boom 100 -> ());
    Alcotest.(check (list int))
      (Printf.sprintf "pool fully usable after raise, round %d" round)
      [ 2; 4; 6 ]
      (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])
  done

(* jobs in 2..4, 0-300 items, each spinning a random amount (so items
   finish out of input order) and some raising after their spin. [map]
   must equal [List.map] when nothing raises, re-raise the smallest
   raising index otherwise, and run a follow-up batch either way. *)
let map_case_gen =
  let open QCheck2.Gen in
  let* jobs = int_range 2 4 in
  let* n = int_range 0 300 in
  let* spins = list_repeat n (int_range 0 3000) in
  (* raising indices cluster in a window, so domains run them side by side *)
  let* raising =
    if n = 0 then return []
    else
      let* start = int_range 0 (n - 1) in
      oneof
        [ return [];
          list_size (int_range 1 4)
            (int_range start (min (n - 1) (start + 8))) ]
  in
  return (jobs, spins, raising)

let prop_map_matches_list_map =
  QCheck2.Test.make ~name:"map = List.map; smallest raising index re-raises"
    ~count:200 map_case_gen
    ~print:(fun (jobs, spins, raising) ->
      Printf.sprintf "jobs=%d items=%d raising=[%s]" jobs (List.length spins)
        (String.concat ";" (List.map string_of_int raising)))
    (fun (jobs, spins, raising) ->
      let f (i, s) =
        spin s;
        if List.mem i raising then raise (Boom i);
        (i * 7) + s
      in
      let xs = List.mapi (fun i s -> (i, s)) spins in
      Pool.with_pool ~jobs @@ fun pool ->
      let first_batch =
        match raising with
        | [] -> Pool.map pool f xs = List.map f xs
        | _ -> (
          match Pool.map pool f xs with
          | _ -> false
          | exception Boom i -> i = List.fold_left min max_int raising)
      in
      first_batch
      && Pool.map pool succ (List.init 50 Fun.id) = List.init 50 succ)

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
            test_create_rejects_zero_jobs;
          Alcotest.test_case "raise under skew: no waiter left asleep" `Quick
            test_raise_under_skew;
          QCheck_alcotest.to_alcotest prop_map_matches_list_map ] );
      ( "epoch",
        [ Alcotest.test_case "merged counters = sequential counters" `Quick
            test_epoch_merge_counter_equivalence;
          Alcotest.test_case "closure memo deterministic per-epoch-unique"
            `Quick test_epoch_closure_memo_equivalence ] );
      ( "interner",
        [ Alcotest.test_case "4-domain interner stress" `Quick
            test_interner_stress ] ) ]
