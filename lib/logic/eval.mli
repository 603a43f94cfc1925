(** Three-valued evaluation of predicates (SQL [WHERE]-clause semantics).

    Evaluation is staged. {!compile_pred} walks a predicate once and
    returns a function of the binding environment ['env]; evaluating a row
    then does no name lookup and allocates no closure. The same compiler
    serves base-table selection, join tuples, correlated subqueries, CHECK
    validation and the rewriter's implication test, through a
    {!resolver} the caller supplies:

    - [column a] is called once per column reference, at compile time, and
      returns the accessor for [a] in an ['env]. A caller that may compile
      without evaluating (the planner compiles plans only to inspect them)
      returns an accessor that raises for a reference it cannot resolve,
      rather than raising itself;
    - [host h] is called at most once per host-variable reference ([:NAME]),
      on the first evaluation that reaches it — an unbound host raises
      then, never at compile time;
    - [exists q] is called once per [EXISTS] subquery, at compile time, and
      returns its test under an ['env].

    [AND] and [OR] evaluate both operands, so every [EXISTS] runs on every
    evaluation whatever the other side yields. *)

exception Unbound_column of Schema.Attr.t
exception Unbound_host of string

type 'env resolver = {
  column : Schema.Attr.t -> 'env -> Sqlval.Value.t;
  host : string -> Sqlval.Value.t;
  exists : Sql.Ast.query_spec -> 'env -> bool;
}

(** The accessor of a scalar: a column's, a constant, or a host variable
    resolved on first use. An aggregate's accessor raises
    [Invalid_argument]. *)
val compile_scalar : 'env resolver -> Sql.Ast.scalar -> 'env -> Sqlval.Value.t

(** [?logic] selects the null semantics of {e atomic} predicates
    ({!Sqlval.Logic_mode}): the default [L3] is SQL's three-valued logic;
    [L2] collapses an unknown atom to false before any connective sees it
    (Libkin two-valued logic). The two agree whenever no operand is null. *)
val compile_pred :
  ?logic:Sqlval.Logic_mode.t ->
  'env resolver ->
  Sql.Ast.pred ->
  'env ->
  Sqlval.Truth.t

(** Compile and evaluate once, for a predicate with no subqueries: each
    column reference calls [lookup_col] when it is evaluated.
    @raise Invalid_argument on [EXISTS]. *)
val eval_pred_simple :
  ?logic:Sqlval.Logic_mode.t ->
  lookup_col:(Schema.Attr.t -> Sqlval.Value.t) ->
  lookup_host:(string -> Sqlval.Value.t) ->
  Sql.Ast.pred ->
  Sqlval.Truth.t
