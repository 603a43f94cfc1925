type t = {
  mutable rows_scanned : int;
  mutable rows_output : int;
  mutable predicate_evals : int;
  mutable product_pairs : int;
  mutable sorts : int;
  mutable sorted_rows : int;
  mutable comparisons : int;
  mutable hash_probes : int;
  mutable subquery_evals : int;
  mutable dedup_rows_in : int;
  mutable dedup_rows_out : int;
  mutable dedup_state_peak : int;
  mutable distinct_elisions : int;
  mutable sort_elisions : int;
  mutable merge_joins : int;
  mutable join_build_rows : int;
  mutable join_probe_rows : int;
  mutable unique_builds : int;
  mutable probe_early_exits : int;
  mutable dedup_strategy : string;
  mutable join_strategy : string;
}

let create () =
  {
    rows_scanned = 0;
    rows_output = 0;
    predicate_evals = 0;
    product_pairs = 0;
    sorts = 0;
    sorted_rows = 0;
    comparisons = 0;
    hash_probes = 0;
    subquery_evals = 0;
    dedup_rows_in = 0;
    dedup_rows_out = 0;
    dedup_state_peak = 0;
    distinct_elisions = 0;
    sort_elisions = 0;
    merge_joins = 0;
    join_build_rows = 0;
    join_probe_rows = 0;
    unique_builds = 0;
    probe_early_exits = 0;
    dedup_strategy = "";
    join_strategy = "";
  }

let reset t =
  t.rows_scanned <- 0;
  t.rows_output <- 0;
  t.predicate_evals <- 0;
  t.product_pairs <- 0;
  t.sorts <- 0;
  t.sorted_rows <- 0;
  t.comparisons <- 0;
  t.hash_probes <- 0;
  t.subquery_evals <- 0;
  t.dedup_rows_in <- 0;
  t.dedup_rows_out <- 0;
  t.dedup_state_peak <- 0;
  t.distinct_elisions <- 0;
  t.sort_elisions <- 0;
  t.merge_joins <- 0;
  t.join_build_rows <- 0;
  t.join_probe_rows <- 0;
  t.unique_builds <- 0;
  t.probe_early_exits <- 0;
  t.dedup_strategy <- "";
  t.join_strategy <- ""

let add t u =
  t.rows_scanned <- t.rows_scanned + u.rows_scanned;
  t.rows_output <- t.rows_output + u.rows_output;
  t.predicate_evals <- t.predicate_evals + u.predicate_evals;
  t.product_pairs <- t.product_pairs + u.product_pairs;
  t.sorts <- t.sorts + u.sorts;
  t.sorted_rows <- t.sorted_rows + u.sorted_rows;
  t.comparisons <- t.comparisons + u.comparisons;
  t.hash_probes <- t.hash_probes + u.hash_probes;
  t.subquery_evals <- t.subquery_evals + u.subquery_evals;
  t.dedup_rows_in <- t.dedup_rows_in + u.dedup_rows_in;
  t.dedup_rows_out <- t.dedup_rows_out + u.dedup_rows_out;
  t.dedup_state_peak <- max t.dedup_state_peak u.dedup_state_peak;
  t.distinct_elisions <- t.distinct_elisions + u.distinct_elisions;
  t.sort_elisions <- t.sort_elisions + u.sort_elisions;
  t.merge_joins <- t.merge_joins + u.merge_joins;
  t.join_build_rows <- t.join_build_rows + u.join_build_rows;
  t.join_probe_rows <- t.join_probe_rows + u.join_probe_rows;
  t.unique_builds <- t.unique_builds + u.unique_builds;
  t.probe_early_exits <- t.probe_early_exits + u.probe_early_exits;
  if u.dedup_strategy <> "" then t.dedup_strategy <- u.dedup_strategy;
  if u.join_strategy <> "" then t.join_strategy <- u.join_strategy

let record_dedup t ~strategy ~state =
  t.dedup_strategy <-
    (if t.dedup_strategy = "" then strategy
     else t.dedup_strategy ^ "," ^ strategy);
  t.dedup_state_peak <- max t.dedup_state_peak state

let record_join t ~strategy =
  t.join_strategy <-
    (if t.join_strategy = "" then strategy
     else t.join_strategy ^ "," ^ strategy)

let fields t =
  [ ("rows_scanned", t.rows_scanned);
    ("rows_output", t.rows_output);
    ("predicate_evals", t.predicate_evals);
    ("product_pairs", t.product_pairs);
    ("sorts", t.sorts);
    ("sorted_rows", t.sorted_rows);
    ("comparisons", t.comparisons);
    ("hash_probes", t.hash_probes);
    ("subquery_evals", t.subquery_evals);
    ("dedup_rows_in", t.dedup_rows_in);
    ("dedup_rows_out", t.dedup_rows_out);
    ("dedup_state_peak", t.dedup_state_peak);
    ("distinct_elisions", t.distinct_elisions);
    ("sort_elisions", t.sort_elisions);
    ("merge_joins", t.merge_joins);
    ("join_build_rows", t.join_build_rows);
    ("join_probe_rows", t.join_probe_rows);
    ("unique_builds", t.unique_builds);
    ("probe_early_exits", t.probe_early_exits) ]
