(** Pull-based (volcano-style) streaming operators.

    An operator is a cursor over a stream of rows with a fixed schema and a
    {e verified order}: the list of attributes the stream is known to be
    lexicographically nondecreasing on (empty when nothing is known). Order
    provenance starts at {!Database.load_sorted} and flows through the
    pipeline — filters preserve it, projections keep the longest retained
    prefix, products inherit the left input's order — so sort-aware
    duplicate elimination ({!sorted_unique}) never has to trust an
    unverified claim.

    {2 Iterator contract}

    - [next ()] returns the next row, or [None] at end of stream. After
      [None], further calls keep returning [None].
    - [rewind ()] restarts the stream from the beginning. Operators with
      internal state (dedup tables, one-row windows) clear it. A rewound
      blocking source replays its buffered result without recomputation.
    - [close ()] releases buffers; the stream then behaves as exhausted.

    The three duplicate-elimination strategies are the executable form of
    the paper's argument: {!hash_unique} pays O(distinct rows) state on any
    input, {!sorted_unique} pays O(1) state but only when the order covers
    the schema, and {!elided_unique} pays nothing — it is inserted only when
    Algorithm 1 proved the stream duplicate-free, which is the caller's
    certificate to provide, not this module's to check. *)

type t = {
  schema : Schema.Relschema.t;
  order : Schema.Attr.t list;
      (** attributes the stream is sorted on (outermost first); [[]] when
          unknown. Every listed attribute is a column of [schema]. *)
  next : unit -> Relation.row option;
  rewind : unit -> unit;
  close : unit -> unit;
}

val schema : t -> Schema.Relschema.t
val order : t -> Schema.Attr.t list
val next : t -> Relation.row option
val rewind : t -> unit
val close : t -> unit

(** {1 Sources} *)

(** Deferred materialized source: [produce] runs on the first [next], never
    at construction — compiling a pipeline to inspect its order provenance
    must not execute it. [tick] is called once per emitted row (the
    executor counts scanned rows with it). *)
val of_lazy :
  ?order:Schema.Attr.t list ->
  ?tick:(unit -> unit) ->
  Schema.Relschema.t ->
  (unit -> Relation.row list) ->
  t

val of_rows :
  ?order:Schema.Attr.t list ->
  ?tick:(unit -> unit) ->
  Schema.Relschema.t ->
  Relation.row list ->
  t

(** {1 Streaming transforms} *)

(** Keep rows satisfying the predicate; schema and order are preserved. *)
val filter : (Relation.row -> bool) -> t -> t

(** Per-row rewrite into a new schema (projection). The caller supplies the
    output [order] — {!Exec} computes it as the longest prefix of the input
    order fully retained by the projection, renamed to output attributes. *)
val map :
  ?order:Schema.Attr.t list ->
  Schema.Relschema.t ->
  (Relation.row -> Relation.row) ->
  t ->
  t

(** Block nested-loop product: the right input is drained once into a
    buffer and replayed per left row, so a streaming right child is
    evaluated exactly once. Output inherits the left order (pairs for a
    fixed left row are contiguous). [tick] counts one call per output
    pair. *)
val product : ?tick:(unit -> unit) -> t -> t -> t

(** {1 Joins}

    Streaming hash joins in the volcano mold: the build input is drained
    into a hash table exactly once, on the first probe pull (construction
    stays pure), and the probe input streams. Output order is inherited
    from the probe side — for a fixed probe row its matches are emitted
    contiguously, which preserves any lexicographic guarantee on probe
    attributes. Join keys use WHERE-equality semantics: a NULL key column
    matches nothing on either side. *)

(** Equi-join [probe ⋈ build]; output schema is the product
    [probe × build] with rows [probe_row @ build_row]. [probe_key] /
    [build_key] are column indices into the respective schemas (parallel
    lists, one entry per equality). The build is a {!Relation.Keyed}
    grouping: one flat array holding each key's rows contiguously, in
    build order, which a matching probe replays. With
    [~unique_build:true] only the table itself is kept (one row per key)
    and every matching probe early-exits with that single row — sound
    only when the build join columns cover a candidate key of the build
    input; the certificate is the caller's to provide (see [Optimizer.Join_plan]),
    not this module's to check. Counts {!Stats.t.join_build_rows},
    {!Stats.t.join_probe_rows}, {!Stats.t.unique_builds} and
    {!Stats.t.probe_early_exits}; [tick] fires once per output row. *)
val hash_join :
  ?tick:(unit -> unit) ->
  stats:Stats.t ->
  ?unique_build:bool ->
  probe_key:int list ->
  build_key:int list ->
  t ->
  t ->
  t

(** Hash semi-join: emit the probe rows with at least one build match
    ([~anti:true] inverts — emit the rows with none). Schema and order are
    the probe's; the build side only ever contributes a key-set bit. With
    [~null_equal:true] keys use the null-comparison total order (NULL
    matches NULL) — the set-operation regime — instead of WHERE-equality
    semantics, under which a NULL probe key matches nothing (so a semi
    drops the row and an anti keeps it). *)
val semi_join :
  ?anti:bool ->
  ?null_equal:bool ->
  stats:Stats.t ->
  probe_key:int list ->
  build_key:int list ->
  t ->
  t ->
  t

(** {1 Ordering} *)

(** Materializing ORDER BY — what the planner elides when order
    provenance already proves the stream sorted. Drains the input on the
    first pull (construction stays pure); the output is list-equal to a
    stable sort on the key columns under {!Sqlval.Value.compare_total}, so
    NULLs sort first and the result agrees byte-for-byte with
    {!Database.load_sorted} verification and {!merge_join}. Stability
    makes it the identity on an input already sorted on the keys — which
    is exactly what makes the certified elided strategy list-equal to it.
    With at most n/4 distinct keys over n rows it sorts only the distinct
    keys ({!Relation.Keyed.number}) and lays the rows out by key rank in
    one counting pass ({!Relation.Keyed.layout}); with more it
    stable-sorts the rows ({!Relation.sort_rows}). Output order provenance
    is the key list. Counts {!Stats.t.sorts}, {!Stats.t.sorted_rows} and
    {!Stats.t.comparisons}. *)
val sort : stats:Stats.t -> Schema.Attr.t list -> t -> t

(** Streaming sort-merge equi-join [probe ⋈ build]: both inputs must be
    verifiably sorted on their join keys (in the order the key index lists
    are given) — a certificate the caller provides (see
    [Optimizer.Order_plan]), not this module's to check. Semantics match
    {!hash_join} exactly: NULL join keys match nothing and are dropped
    from both sides, output is probe-major with build rows in build order
    within a key group, so the output is list-equal to a hash join over
    the same inputs. Holds one build key group as its only buffered state.
    Counts {!Stats.t.merge_joins} plus the shared join row counters. *)
val merge_join :
  ?tick:(unit -> unit) ->
  stats:Stats.t ->
  probe_key:int list ->
  build_key:int list ->
  t ->
  t ->
  t

(** {1 Duplicate elimination} *)

(** Does the stream order guarantee that equal rows are adjacent? True when
    the attribute set of some prefix of [order] equals the attribute set of
    the schema — then two rows equal on every column are equal on the full
    sort key and land in the same run. *)
val order_covers : Schema.Relschema.t -> Schema.Attr.t list -> bool

(** Hash-set duplicate elimination through a {!Relation.Keyed} table on
    every column: works on any input, holds one row per distinct value
    ({!Stats.t.dedup_state_peak} tracks the high-water mark). [strategy] overrides the name recorded in the stats narration
    (the executor uses ["sorted-unique->hash"] for fallbacks). *)
val hash_unique : ?strategy:string -> stats:Stats.t -> t -> t

(** Sort-aware duplicate elimination with a one-row window, after ToyDBMS's
    [OptimizedUnique]: sound only when {!order_covers} holds, hence returns
    [None] otherwise and the caller chooses a fallback (recording it in
    {!Stats.t.sorted_fallbacks}). *)
val sorted_unique : stats:Stats.t -> t -> t option

(** The paper's payoff: a pass-through standing where a DISTINCT used to
    be. Inserted only when Algorithm 1 answered YES — the engine trusts the
    planner's certificate (see [Optimizer.Distinct_plan]) and records the
    elision in {!Stats.t.distinct_elisions}. *)
val elided_unique : stats:Stats.t -> t -> t

(** {1 Sinks} *)

(** Drain the stream to a list and close the operator. *)
val to_rows : t -> Relation.row list

val to_relation : t -> Relation.t
