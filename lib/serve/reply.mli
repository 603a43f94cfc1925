(** The analysis payload behind one serve/batch request.

    {!process} turns one SQL text into one reply line (verdicts, rewrite
    count, rewritten form — or a parse/analysis error) exactly as the
    [batch] command prints it; {!run_batch} answers a whole batch, each
    statement whose reply is memoized from the memo and the rest on a
    {!Parallel.Pool} inside one {!Analysis_cache.epoch}, which is the
    serving pipeline's unit of parallelism. Replies depend only on the
    catalog and the SQL text — never on cache state or scheduling — so
    serve output is byte-identical at any [--jobs]. *)

(** Latency-accounting class of a request: [Analyze] — a plain SELECT
    block both uniqueness analyzers judge; [Rewrite] — any other query
    that parses (set operations, GROUP BY); [Error] — it didn't parse or
    the analysis raised. *)
type request_class = Analyze | Rewrite | Error

val class_name : request_class -> string

(** In display order: analyze, rewrite, error. *)
val all_classes : request_class list

(** [process cache cat ~label sql] — the reply (newline-terminated,
    beginning with [label]) and the request's class. Never raises: errors
    become error replies. Safe to run on any pool domain. No reply memo:
    every call parses the text and analyzes it through [cache]. *)
val process :
  Analysis_cache.t ->
  Catalog.t ->
  label:string ->
  string ->
  string * request_class

(** A serving session: one verdict cache and, in front of it, a reply
    memo keyed by statement text. Share one per batch/serve session. *)
type t

(** [create ?capacity ()] — a session whose verdict cache and reply memo
    each hold at most [capacity] entries (default 1024). The memo admits
    a reply only when its statement was seen before (a direct-mapped
    record of [capacity] statement hashes), so all-new traffic stores no
    replies. *)
val create : ?capacity:int -> unit -> t

(** [run_batch pool t cat items] — answer [(label, sql)] items; results
    in request order, byte-identical to {!process} with a fresh cache. A
    statement the memo holds is answered on the calling domain; the rest
    are analyzed on the pool inside one cache epoch, and their replies
    are then admitted in request order. A [cat] other than the previous
    call's (physically) clears the memo. Must be called from the pool's
    submitting domain. *)
val run_batch :
  Parallel.Pool.t ->
  t ->
  Catalog.t ->
  (string * string) list ->
  (string * request_class) list

(** The [cache: ...] counter line (no trailing newline) the batch/serve
    front ends print — verdict hits/misses/evictions/entries, closure
    memo hits/misses, then reply memo hits/misses/entries. *)
val cache_stats_line : t -> string
