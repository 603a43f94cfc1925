(** Pull-based (volcano-style) streaming operators.

    An operator is a cursor over a stream of rows with a fixed schema and a
    {e verified order}: the list of attributes the stream is known to be
    lexicographically nondecreasing on (empty when nothing is known). Order
    provenance starts at {!Database.load_sorted} and flows through the
    pipeline — filters preserve it, projections keep the longest retained
    prefix, products inherit the left input's order — so duplicate
    elimination ({!unique}) never has to trust an unverified claim.

    {2 Iterator contract}

    - [next ()] returns the next row, or [None] at end of stream. After
      [None], further calls keep returning [None].
    - [close ()] releases buffers; the stream then behaves as exhausted.

    The two duplicate-elimination operators are the executable form of
    the paper's argument: {!unique} pays state only for what the stream's
    verified order leaves unordered — O(distinct rows) with no order, the
    largest run's distinct count under a partial order, one row when the
    order covers the schema — and {!elided_unique} pays nothing: it is
    inserted only when Algorithm 1 proved the stream duplicate-free, which
    is the caller's certificate to provide, not this module's to check. *)

type t = {
  schema : Schema.Relschema.t;
  order : Schema.Attr.t list;
      (** attributes the stream is sorted on (outermost first); [[]] when
          unknown. Every listed attribute is a column of [schema]. *)
  next : unit -> Relation.row option;
  close : unit -> unit;
}

val schema : t -> Schema.Relschema.t
val order : t -> Schema.Attr.t list
val next : t -> Relation.row option
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
    [Optimizer.Join_plan]), not this module's to check. Semantics match
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

(** [unique_path schema order] is how {!unique} deduplicates a stream
    with this schema and verified order: the positions P of [schema] whose
    attribute lies in the longest prefix of [order] inside the schema
    (ascending; a duplicated column contributes every copy), and the path
    they select — ["hash-unique"] when P is empty, ["sorted-unique"] when
    P is every position, ["prefix-unique"] otherwise. *)
val unique_path : Schema.Relschema.t -> Schema.Attr.t list -> string * int array

(** Streaming duplicate elimination, after ToyDBMS's [OptimizedUnique]:
    rows equal on every column agree on P (see {!unique_path}) and the
    stream is sorted on P, so duplicates fall in one run of rows sharing
    P's values. The remaining positions R go through a {!Relation.Keyed}
    table that a new run clears, so the state is the largest run's
    distinct count. With P empty the table holds every column and is
    never cleared (O(distinct rows)); with R empty there is no table — a
    row is new iff it starts a run, one comparison per row. Output is the
    first occurrence of each distinct row, in arrival order. Narrates the
    path in {!Stats.t.dedup_strategy}; {!Stats.t.dedup_state_peak} is the
    largest table count, or 1 when the order covers the schema. *)
val unique : stats:Stats.t -> t -> t

(** The paper's payoff: a pass-through standing where a DISTINCT used to
    be. Inserted only when Algorithm 1 answered YES — the engine trusts the
    planner's certificate (see [Optimizer.Distinct_plan]) and records the
    elision in {!Stats.t.distinct_elisions}. *)
val elided_unique : stats:Stats.t -> t -> t

(** {1 Sinks} *)

(** Drain the stream to a list, in arrival order, and close the operator.
    The one drain: rows go into fixed 128-row chunk arrays and are
    unrolled into the list once, at end of stream, so the answer is built
    in a single pass. Each row's arity is checked against the schema on
    the way.
    @raise Invalid_argument on a row whose arity differs from the
    schema's, as {!Relation.make} does. *)
val to_rows : t -> Relation.row list

(** [{ schema; rows = to_rows op }]: no second walk over the rows. *)
val to_relation : t -> Relation.t
