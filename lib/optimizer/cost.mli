(** A deliberately simple System-R-flavoured cost model, sufficient to rank
    the execution strategies that the uniqueness rewrites expose against the
    naive plans. Costs are abstract work units (rows touched / compared);
    cardinalities come from a table-statistics callback.

    Selectivity heuristics: equality on a full candidate key -> 1/|T|;
    other equality -> 0.1; range/IN -> 0.3; disjunction -> complement
    product; EXISTS -> per-outer-row probe of half the inner table
    (early-exit nested loop). Duplicate elimination costs
    [n log2 n] comparisons on its input. *)

type table_stats = string -> int
(** cardinality of a base table (by name) *)

(** The planner's one cardinality source, paired with its narrated name:
    [database]'s row counts (["database"]), else [stats] (["callback"]),
    else 1000 rows per table (["default 1000"]). *)
val source :
  ?database:Engine.Database.t -> ?stats:table_stats -> unit -> string * table_stats

type estimate = {
  cost : float;      (** total work units *)
  card : float;      (** estimated output cardinality *)
}

val query : Catalog.t -> table_stats -> Sql.Ast.query -> estimate
val query_spec : Catalog.t -> table_stats -> Sql.Ast.query_spec -> estimate

(** {1 Join-planning primitives}

    Building blocks for [Optimizer.Join_plan]'s greedy order enumeration;
    {!query_spec} remains the single-shot whole-query estimate. *)

(** Does [pred] contain equalities pinning a full candidate key of the
    table occurrence? Then its selectivity is [1/|T|] rather than the
    generic per-atom heuristic. *)
val key_pinned : Catalog.t -> Sql.Ast.from_item -> Sql.Ast.pred -> bool

(** Coarse selectivity of a predicate (equality 0.1, range 0.3, ...). *)
val selectivity : Sql.Ast.pred -> float

(** Estimate for one FROM-list leaf under its pushed-down single-table
    conjuncts: cost = one scan of the table, cardinality = [|T| / |T|]
    when the conjuncts pin a candidate key, [|T| * selectivity]
    otherwise. *)
val restrict :
  Catalog.t -> table_stats -> Sql.Ast.from_item -> Sql.Ast.pred -> estimate

(** Price of one hash-join build row, in probe rows: a build row is
    hashed, stored and laid out ([Relation.Keyed.group]) and held for the
    whole join, a probe row is hashed, looked up and streamed. Calibrated
    on the JOIN_SCALE bench's per-row build and probe times (the
    measurement is cited at the definition). *)
val build_weight : float

(** One streaming join step, mirroring [Engine.Operator.hash_join]:
    [equis = 0] is a block nested-loop product (cost includes every
    pair); otherwise the step is asymmetric in its two sides:
    [outer.cost + inner.cost + build_weight * inner.card + outer.card +
    card] — every inner (build) row is stored, every outer (probe) row is
    looked up, every output row is emitted. Cardinality: [outer * inner]
    for a product, [outer] under a unique-build certificate (each probe
    row matches at most one build row), [outer * inner * 0.1^equis]
    otherwise. *)
val join_step :
  outer:estimate -> inner:estimate -> equis:int -> unique_build:bool -> estimate

(** Comparisons a materializing [ORDER BY] sort pays on [card] rows
    ([n log2 n]) — the cost a certified sort elision removes, and what
    [Optimizer.Join_plan] charges a join order that cannot elide it. An
    upper bound: on at most [n/4] distinct keys the engine compares only
    the distinct ones. *)
val sort : card:float -> float

(** One streaming merge-join step over inputs ordered on the join keys,
    mirroring [Engine.Operator.merge_join]: both sides stream through one
    comparison sweep, so the step is symmetric — [outer.cost + inner.cost
    + 0.5 * (outer.card + inner.card) + card] — with {!join_step}'s
    cardinality. *)
val merge_step :
  outer:estimate -> inner:estimate -> equis:int -> unique_build:bool -> estimate
