(** A fixed-size pool of worker domains that runs one parallel map.

    Each query is analysed on its own, so [batch], [serve] and
    [fuzz --jobs N] need only a parallel [List.map] with a barrier. In a
    {!map}, every domain, the caller included, claims item indices from
    one atomic counter until none is left; the caller then waits for the
    stragglers. Guarantees:

    - {e Input order.} Results come back in input order, so batch output,
      fuzz reports and serve replies are byte-identical at any [--jobs].
    - {e Exceptions reach the caller.} Every item runs, even after an
      earlier one raised; then {!map} re-raises, with its backtrace, the
      exception of the first raising item in input order. The pool stays
      usable.
    - {e [jobs = 1] is [List.map].} Nothing is spawned, no mutex is taken.

    Call {!map} from one domain at a time, never from inside an item. *)

type t

(** [create ~jobs] — the caller plus [jobs - 1] spawned worker domains.
    @raise Invalid_argument when [jobs < 1]. *)
val create : jobs:int -> t

(** The [~jobs] the pool was created with. *)
val jobs : t -> int

(** [map t f xs] — [List.map f xs] spread over the pool's domains. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Join the workers; the pool must not be used afterwards. Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] — [create], run [f], always [shutdown]. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
