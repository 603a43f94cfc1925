(** Hash-consed attribute identifiers.

    Maps each qualified attribute ({!Schema.Attr.t}) to a small dense
    integer, stable for the lifetime of the process, so attribute sets can
    be represented as {!Bitset} values in the closure hot loops. The table
    is global and append-only: the id of an attribute never changes, and
    {!attr} inverts {!id} exactly. Domain-safe without a lock on the read
    path: {!id} of a known attribute and {!attr} read atomically published
    immutable state; only allocating a new id takes the table's mutex. *)

(** The id of [a], allocating the next free id on first sight. *)
val id : Schema.Attr.t -> int

(** The attribute with id [i].
    @raise Invalid_argument when [i] was never returned by {!id}. *)
val attr : int -> Schema.Attr.t

(** {1 Set conversion} *)

val bits_of_set : Schema.Attr.Set.t -> Bitset.t
val set_of_bits : Bitset.t -> Schema.Attr.Set.t
