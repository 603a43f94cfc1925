(** Two-valued logic by translation (Libkin).

    Under two-valued logic an atom over NULL is plain false and the
    connectives are classical ({!Sqlval.Logic_mode.L2}). The translation
    rewrites a query so that SQL's three-valued logic selects exactly the
    rows two-valued logic selects: negation is pushed down to atoms
    classically, and a negated atom [NOT (a op b)] becomes [a op' b OR a
    IS NULL OR b IS NULL] ([NOT BETWEEN] likewise over its three
    operands; [NOT (a IN list)] becomes the conjunction of [a <> v] over
    the list's non-NULL values [v], or [a IS NULL]). The result carries [NOT]
    only around [EXISTS], so each predicate is monotone and its
    three-valued truth is the two-valued one wherever that is true.
    [EXISTS] bodies and set-operation operands are translated too.

    Certificates derived under three-valued logic (Algorithm 1's normal
    form, say, reads [NOT (K <> 5)] as [K = 5]) are therefore sound for
    the translated query, which runs under {!Sqlval.Logic_mode.L3}. *)

val pred : Sql.Ast.pred -> Sql.Ast.pred
val query : Sql.Ast.query -> Sql.Ast.query
