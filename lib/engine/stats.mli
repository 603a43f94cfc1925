(** Execution counters. The benchmark harness reads these to report the
    cost structure the paper argues about (e.g. the sort performed by
    duplicate elimination, or the inner-loop rows saved by an early-exit
    [EXISTS] strategy). The [dedup_*] family records what each
    duplicate-elimination strategy paid: rows in/out, the peak size of the
    dedup state (|distinct rows| with no order, the largest run's distinct
    count under a partial order prefix, 1 when the order covers the
    projection, 0 when the operator was elided), and which strategy
    actually ran. The [join_*] family does the same for hash joins: rows
    drained into build tables, rows streamed through probes, how many
    builds ran in the one-flat-row unique mode, and how many probes that
    mode answered without a bucket walk. *)

type t = {
  mutable rows_scanned : int;       (** rows read from base tables *)
  mutable rows_output : int;        (** rows in operator results *)
  mutable predicate_evals : int;    (** selection predicate evaluations *)
  mutable product_pairs : int;      (** tuples materialized by products/joins *)
  mutable sorts : int;              (** sort operations performed *)
  mutable sorted_rows : int;        (** total rows fed into sorts *)
  mutable comparisons : int;        (** row comparisons in sorts/merges *)
  mutable hash_probes : int;        (** hash-table probes (hash dedup, joins) *)
  mutable subquery_evals : int;     (** EXISTS subquery evaluations *)
  mutable dedup_rows_in : int;      (** rows entering duplicate elimination *)
  mutable dedup_rows_out : int;     (** rows surviving duplicate elimination *)
  mutable dedup_state_peak : int;   (** max rows held by any dedup operator *)
  mutable distinct_elisions : int;  (** Elided_unique pass-throughs inserted *)
  mutable sort_elisions : int;
      (** ORDER BY sorts elided under an [Optimizer.Order_plan]
          certificate: the stream's verified order already implied the
          requested one, so the materializing sort became a pass-through *)
  mutable merge_joins : int;
      (** joins run as streaming sort-merge joins (a planner certificate
          that both inputs' verified orders cover the join keys) *)
  mutable join_build_rows : int;    (** rows drained into join build tables *)
  mutable join_probe_rows : int;    (** rows streamed through join probes *)
  mutable unique_builds : int;
      (** joins whose build side ran in unique mode: one flat row per key
          (a planner certificate that the build join columns cover a
          candidate key — see [Optimizer.Join_plan]) *)
  mutable probe_early_exits : int;
      (** probes answered by the unique-build fast path: a single row
          returned with no bucket list to walk *)
  mutable dedup_strategy : string;
      (** comma-joined names of the dedup strategies that ran, in plan
          order (e.g. ["elided-unique"], ["prefix-unique"]); [""]
          when the plan eliminated no duplicates *)
  mutable join_strategy : string;
      (** comma-joined names of the join strategies compiled, in plan order
          (e.g. ["hash-join,unique-hash-join"], ["nested"]); [""] when the
          plan joined nothing *)
}

val create : unit -> t
val reset : t -> unit

(** Sum counters ([dedup_state_peak] takes the max; a nonempty
    [dedup_strategy]/[join_strategy] on the right-hand side wins). *)
val add : t -> t -> unit

(** Narrate one duplicate-elimination step: appends [strategy] to
    [dedup_strategy] and folds [state] into [dedup_state_peak]. *)
val record_dedup : t -> strategy:string -> state:int -> unit

(** Narrate one join step: appends [strategy] to [join_strategy]. *)
val record_join : t -> strategy:string -> unit

(** Counter name/value pairs in declaration order — the stable interchange
    form used to fold execution counters into explain reports (both the
    JSON and tree renderings). The string-valued strategy narrations are
    not included; read [dedup_strategy]/[join_strategy] directly. *)
val fields : t -> (string * int) list
