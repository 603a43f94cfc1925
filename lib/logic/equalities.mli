(** Equality conditions, as classified by Algorithm 1 (paper section 4):

    - {b Type 1}: [v = c] — a column equated with a constant or host
      variable, which pins the column to a single value for the whole
      execution;
    - {b Type 2}: [v1 = v2] — two columns equated, which propagates
      "bound-ness" between them (the algorithm takes the transitive
      closure of the projection attributes under these). *)

type rhs =
  | Const of Sqlval.Value.t
  | Host of string

type t =
  | Type1 of Schema.Attr.t * rhs
  | Type2 of Schema.Attr.t * Schema.Attr.t

(** Classify a literal. [None] for anything that is not an equality between
    a column and a column/constant/host. *)
val of_literal : Sql.Ast.pred -> t option

(** Split a conjunction of literals into its equalities and the rest. *)
val split : Sql.Ast.pred list -> t list * Sql.Ast.pred list

(** [closure seed eqs] — Algorithm 1 lines 13–16: start from the projection
    attributes, add every Type-1 column, then saturate under Type-2
    equalities. With [~trace], every column acquired emits a
    [closure.type1] / [closure.type2] decision node naming the equality
    that bound it. *)
val closure :
  ?trace:Trace.t -> Schema.Attr.Set.t -> t list -> Schema.Attr.Set.t

(** Equivalence classes of columns under Type-2 equalities, with the constant
    each class is pinned to (if any Type-1 member). Used for constant
    inference and FD derivation. *)
module Classes : sig
  type classes

  val build : t list -> classes

  (** Representative-keyed groups. *)
  val groups : classes -> Schema.Attr.t list list

  (** Constant (or host) bound to the class of [a], if any. *)
  val binding : classes -> Schema.Attr.t -> rhs option

  (** The union-find root of [a]'s class ([a] itself when unequated):
      one representative per class, stable while [classes] is. Lookups
      compress paths in place, so a [classes] value must not be shared
      between domains. *)
  val representative : classes -> Schema.Attr.t -> Schema.Attr.t

  (** Are two columns in the same class? *)
  val same : classes -> Schema.Attr.t -> Schema.Attr.t -> bool
end

val pp : Format.formatter -> t -> unit
