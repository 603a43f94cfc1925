(* Tests for the differential fuzzer itself: the generators must produce
   constraint-satisfying schemas/instances, cases must round-trip through
   the corpus format, shrinking must preserve the failure it minimizes, a
   short fixed-seed campaign must be discrepancy-free and bit-reproducible,
   and every checked-in counterexample must replay clean. *)

module D = Difftest
module Value = Sqlval.Value

let rng_of seed = Random.State.make [| seed |]

(* ---- generator properties ---- *)

let prop_instances_satisfy_constraints =
  QCheck2.Test.make ~name:"generated instances satisfy their constraints"
    ~count:150 QCheck2.Gen.int
    (fun seed ->
      let rng = rng_of seed in
      let ddl = D.Schema_gen.generate ~rng in
      let cat = D.Schema_gen.catalog_of_ddl ddl in
      let rows = D.Instance_gen.tables ~rng cat in
      let db = D.Instance_gen.database cat rows in
      Engine.Database.validate db = [])

let prop_ddl_roundtrips =
  QCheck2.Test.make ~name:"generated DDL round-trips through the parser"
    ~count:150 QCheck2.Gen.int
    (fun seed ->
      let rng = rng_of seed in
      let ddl = D.Schema_gen.generate ~rng in
      List.for_all
        (fun ct ->
          match Sql.Parser.parse_statement (Sql.Pretty.create_table ct) with
          | Sql.Ast.Create ct' ->
            (* the catalog is the semantic arbiter: both must canonicalize
               to the same table definition *)
            Catalog.table_def_of_create ct = Catalog.table_def_of_create ct'
          | _ -> false)
        ddl)

let prop_queries_execute =
  QCheck2.Test.make ~name:"generated queries execute on generated instances"
    ~count:150 QCheck2.Gen.int
    (fun seed ->
      let rng = rng_of seed in
      let case = D.Case.generate ~rng ~instances:2 ~rows:4 () in
      List.for_all
        (fun inst ->
          let db = D.Case.database case inst in
          let r =
            Engine.Exec.run_query db ~hosts:inst.D.Case.hosts case.D.Case.query
          in
          Engine.Relation.cardinality r >= 0)
        case.D.Case.instances)

let prop_case_sexp_roundtrips =
  QCheck2.Test.make ~name:"cases round-trip through the corpus format"
    ~count:100 QCheck2.Gen.int
    (fun seed ->
      let rng = rng_of seed in
      let case = D.Case.generate ~rng ~instances:2 ~rows:3 () in
      let text = D.Sexp.to_string (D.Case.to_sexp case) in
      let case' = D.Case.of_sexp (D.Sexp.of_string text) in
      D.Sexp.to_string (D.Case.to_sexp case') = text)

(* ---- shrinking ---- *)

let total_rows (c : D.Case.t) =
  List.fold_left
    (fun acc inst ->
      List.fold_left
        (fun acc (_, rows) -> acc + List.length rows)
        acc inst.D.Case.rows)
    0 c.D.Case.instances

let prop_shrink_preserves_failure =
  QCheck2.Test.make ~name:"shrinking preserves the failure it minimizes"
    ~count:40 QCheck2.Gen.int
    (fun seed ->
      let rng = rng_of seed in
      let case = D.Case.generate ~rng ~instances:2 ~rows:4 () in
      (* a synthetic deterministic "failure": the case holds >= 3 rows *)
      let fails c = total_rows c >= 3 in
      QCheck2.assume (D.Shrink.valid case && fails case);
      let small = D.Shrink.minimize ~fails case in
      fails small && D.Shrink.valid small && total_rows small <= total_rows case)

(* ---- campaign determinism and soundness ---- *)

let campaign_config =
  { D.Runner.default with D.Runner.seed = 7; count = 60; instances = 2; rows = 4 }

let report_text r = Format.asprintf "%a" D.Runner.pp_report r

let test_campaign_clean () =
  let r = D.Runner.run campaign_config in
  Alcotest.(check int) "no invalid generated cases" 0 r.D.Runner.skipped_cases;
  Alcotest.(check int) "no discrepancies" 0
    (List.length r.D.Runner.discrepancies)

let test_campaign_deterministic () =
  let a = report_text (D.Runner.run campaign_config) in
  let b = report_text (D.Runner.run campaign_config) in
  Alcotest.(check string) "identical reports" a b

(* nested-OR cases blow the normalization clause budget, so the analyzers
   answer the sound MAYBE; the oracles must stay clean on them, and the
   knob's 0.0 default must leave the seeded stream untouched *)
let test_campaign_nested_or_clean () =
  let config =
    { campaign_config with D.Runner.nested_or = 0.5; shrink = false }
  in
  let r = D.Runner.run config in
  Alcotest.(check int) "no invalid generated cases" 0 r.D.Runner.skipped_cases;
  Alcotest.(check int) "no discrepancies" 0
    (List.length r.D.Runner.discrepancies);
  let explicit_default =
    report_text (D.Runner.run { campaign_config with D.Runner.nested_or = 0.0 })
  in
  Alcotest.(check string) "nested_or 0.0 is byte-identical to the default"
    (report_text (D.Runner.run campaign_config))
    explicit_default

(* pool-consistency oracle: judging the campaign on 4 domains must merge
   back into the byte-identical report the sequential run produces, with
   the shared cache on as well as off *)
let test_campaign_pool_consistent () =
  let sequential = report_text (D.Runner.run campaign_config) in
  let pooled =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        report_text (D.Runner.run ~pool campaign_config))
  in
  Alcotest.(check string) "jobs 1 = jobs 4" sequential pooled;
  let cached = { campaign_config with D.Runner.use_cache = true } in
  let seq_cached = report_text (D.Runner.run cached) in
  let pooled_cached =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        report_text (D.Runner.run ~pool cached))
  in
  Alcotest.(check string) "cache-free = shared-cache, pooled" sequential
    seq_cached;
  Alcotest.(check string) "jobs 1 = jobs 4 with the shared cache" seq_cached
    pooled_cached

(* The cache oracle builds two private analysis caches per case, and every
   judged block runs in an epoch, so each case creates epoch locals. They
   must die with their epoch: the live heap after a long campaign may not
   exceed the one after a short campaign by more than noise (leaking one
   local per cache grows it by ~90k words over the extra cases). *)
let test_campaign_heap_flat () =
  let live_after count =
    let config =
      { campaign_config with D.Runner.count; oracles = [ "cache" ]; shrink = false }
    in
    Parallel.Pool.with_pool ~jobs:1 (fun pool ->
        ignore (D.Runner.run ~pool config));
    (* the closure memo is a bounded LRU that fills with the campaign *)
    Cache.Runtime.clear ();
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let short = live_after 64 in
  let long = live_after 512 in
  if long - short > 20_000 then
    Alcotest.failf "live heap grew by %d words from 64 to 512 cases"
      (long - short)

(* symbolic-oracle reproducibility: restricting a campaign to the
   symbolic (and logic) oracle groups must be byte-identical across
   sequential and pooled judging — the symbolic witness search is a
   deterministic function of the case, with no RNG of its own *)
let test_campaign_symbolic_reproducible () =
  let config =
    { campaign_config with D.Runner.oracles = [ "symbolic"; "logic" ] }
  in
  let sequential = report_text (D.Runner.run config) in
  let pooled =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        report_text (D.Runner.run ~pool config))
  in
  Alcotest.(check string) "symbolic oracle: jobs 1 = jobs 4" sequential pooled;
  Alcotest.(check string) "symbolic oracle: rerun is byte-identical"
    sequential
    (report_text (D.Runner.run config))

(* the skip accounting must itself be deterministic and must never lose
   a skip: the per-reason tallies have to sum to the report's skip
   total, for every oracle restriction *)
let test_skips_are_accounted () =
  List.iter
    (fun only ->
      let config = { campaign_config with D.Runner.oracles = only } in
      let r = D.Runner.run config in
      let tallied =
        List.fold_left (fun acc (_, n) -> acc + n) 0 r.D.Runner.skip_reasons
      in
      let skips =
        List.fold_left
          (fun acc (_, (_, skip, _)) -> acc + skip)
          0 r.D.Runner.per_oracle
      in
      Alcotest.(check int)
        (Printf.sprintf "skip reasons sum to skip total (%s)"
           (String.concat "," only))
        skips tallied)
    [ []; [ "symbolic" ]; [ "agreement"; "symbolic" ] ]

(* ---- regression corpus ---- *)

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sexp")
  |> List.sort String.compare
  |> List.map (Filename.concat "corpus")

let test_corpus_replays_clean () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      let case = D.Case.load path in
      let findings = D.Runner.replay case in
      match D.Oracle.failures findings with
      | [] -> ()
      | fs ->
        Alcotest.fail
          (Format.asprintf "%s: %a" path
             (Format.pp_print_list D.Oracle.pp_finding)
             fs))
    files

let test_corpus_cases_valid () =
  List.iter
    (fun path ->
      let case = D.Case.load path in
      Alcotest.(check bool)
        (path ^ " instances satisfy constraints")
        true (D.Shrink.valid case))
    (corpus_files ())

let () =
  Alcotest.run "difftest"
    [
      ( "generators",
        [
          QCheck_alcotest.to_alcotest prop_instances_satisfy_constraints;
          QCheck_alcotest.to_alcotest prop_ddl_roundtrips;
          QCheck_alcotest.to_alcotest prop_queries_execute;
          QCheck_alcotest.to_alcotest prop_case_sexp_roundtrips;
        ] );
      ("shrinking", [ QCheck_alcotest.to_alcotest prop_shrink_preserves_failure ]);
      ( "campaign",
        [
          Alcotest.test_case "fixed-seed campaign is clean" `Quick
            test_campaign_clean;
          Alcotest.test_case "same seed, same report" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "nested-OR (budget MAYBE) campaign is clean"
            `Quick test_campaign_nested_or_clean;
          Alcotest.test_case "4-domain pool, same report" `Quick
            test_campaign_pool_consistent;
          Alcotest.test_case "live heap flat in the case count" `Quick
            test_campaign_heap_flat;
          Alcotest.test_case "symbolic oracle reproducible across jobs" `Quick
            test_campaign_symbolic_reproducible;
          Alcotest.test_case "skips are accounted by reason" `Quick
            test_skips_are_accounted;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replays clean" `Quick test_corpus_replays_clean;
          Alcotest.test_case "cases are valid" `Quick test_corpus_cases_valid;
        ] );
    ]
