(** Seeded, budgeted fuzz campaigns.

    Everything a campaign does — schemas, queries, instances, verdicts —
    derives from [Random.State.make [| seed |]], and the report carries no
    timing data, so the same configuration always produces a bit-identical
    report ([uniqsql fuzz --seed 7 --count 5000] twice diffs empty; tested
    in [test/test_difftest.ml]). *)

type config = {
  seed : int;
  count : int;  (** cases to generate *)
  instances : int;  (** database instances per case *)
  rows : int;  (** max rows per table per instance *)
  exact_cells : int;  (** budget of the exact checker (agreement oracle) *)
  shrink : bool;  (** minimize failing cases before reporting *)
  use_cache : bool;
      (** run every oracle through one campaign-wide {!Analysis_cache} with
          the closure memo enabled; the report must stay bit-identical to a
          cache-free campaign (asserted by the CI cache smoke step) *)
  nested_or : float;
      (** probability a case's query is the budget-blowing nested
          OR-of-ANDs shape ({!Query_gen.nested_or_spec}); 0.0 — the
          default — draws nothing from the RNG, so historical seeded
          reports are byte-identical *)
  oracles : string list;
      (** which oracle groups to run (the fuzzer's [--oracle] flag);
          [[]] — the default — runs them all. Names as in
          {!Oracle.group_names}. *)
}

val default : config
(** seed 7, 1000 cases, 3 instances, ≤6 rows, 100k exact-checker cells,
    shrinking on, cache off, no nested-OR cases, all oracle groups *)

type discrepancy = {
  case_index : int;
  oracle : string;
  detail : string;
  case : Case.t;  (** minimized when [config.shrink] *)
}

type report = {
  config : config;
  cases : int;
  skipped_cases : int;
      (** generated cases whose instances failed validation (bug in the
          generators — always 0 unless the generator itself regresses) *)
  per_oracle : (string * (int * int * int)) list;
      (** oracle name -> (pass, skip, fail), sorted by name *)
  skip_reasons : ((string * string) * int) list;
      (** (oracle name, skip reason) -> count, sorted; digit runs in
          reasons are collapsed to ["N"] so budget-dependent messages
          aggregate. Every skip an oracle reports lands here — skips are
          accounted, never silently dropped. *)
  discrepancies : discrepancy list;
}

(** [run ?log ?pool config] — execute the campaign. With a [?pool], case
    {e generation} stays sequential on the single seeded RNG stream while
    oracle judging fans out over the pool's domains, and results merge back
    in case order — the report is byte-identical at any job count (the
    pool-consistency check in [test/test_difftest.ml] diffs [--jobs 1]
    against [--jobs 4]). Each judged block runs as one cache epoch
    ({!Cache.Runtime.epoch}), the only way worker domains may reach the
    shared caches. *)
val run : ?log:(int -> unit) -> ?pool:Parallel.Pool.t -> config -> report

(** Re-judge a stored corpus case ([only] as in {!Oracle.all};
    default all groups). *)
val replay : ?max_cells:int -> ?only:string list -> Case.t -> Oracle.finding list

val pp_report : Format.formatter -> report -> unit
