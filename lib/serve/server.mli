(** The concurrent serve front end.

    One select-based event loop multiplexes a Unix-socket listener and/or
    stdin. Protocol (documented for operators in [doc/SERVING.md]):

    - One request per line: SQL text, or the commands [stats] (drain,
      then report counters, cache counters, and per-class
      p50/p95/p99 latency as an explain-style ["latency"] section) and
      [shutdown] (reply ["draining"], then drain and exit). Blank lines
      and [--] comments are ignored. [.stats] is accepted as a synonym
      for [stats] (the historical stdin spelling).
    - Socket replies are {e framed}: each request's reply block is
      terminated by a line containing a single ["."], so clients can
      pipeline requests and split the reply stream without guessing line
      counts. The stdin connection is unframed (replies to stdout), which
      is the historical [uniqsql serve] behaviour.
    - Admission control: at most [max_inflight] requests queue; beyond
      that the server replies ["<label> overloaded"] immediately instead
      of buffering without bound. Labels are per-connection request
      numbers ["[1]"], ["[2]"], … so replies correlate with requests.
    - A request line longer than 1 MiB is refused with
      ["<label> line too long"] once it outgrows the limit, and the rest
      of it is skipped up to its newline. The server never buffers more
      than that per connection, and reads each byte once.

    Admitted requests dispatch in arrival order, at most [max_batch] per
    {!Analysis_cache.epoch}, through {!Reply.run_batch} on a
    [Parallel.Pool] of [jobs] domains; a statement whose reply is
    memoized never reaches the pool. Reply order per connection always
    equals request order, and reply bytes are identical at any [jobs].
    A batch's replies to one connection leave in one write.

    Shutdown — the [stop] flag (set it from a SIGTERM/SIGINT handler),
    a [shutdown] command, or EOF on every connection of a listener-less
    server — drains: every admitted request is answered and flushed
    before the listener and connections close (the socket path is
    unlinked). *)

type config = {
  socket_path : string option;  (** listen on this Unix socket *)
  use_stdin : bool;  (** serve stdin as an unframed connection *)
  jobs : int;  (** analysis pool domains *)
  max_inflight : int;  (** admission bound; beyond it: [overloaded] *)
  max_batch : int;  (** max requests per dispatch epoch *)
  test_delay_s : float;
      (** artificial stall before each dispatch — protocol tests use it
          to fill the admission queue deterministically; keep 0 *)
  stop : bool Atomic.t;  (** set true (e.g. from a signal handler) to drain and exit *)
}

(** stdin only, jobs 1, max_inflight 1024, max_batch 64, no delay. *)
val default_config : unit -> config

(** Run the server until shutdown. Creates (and on exit destroys) the
    socket and the analysis pool; the caller supplies the long-lived
    catalog and session (verdict cache and reply memo) and typically
    prints {!Reply.cache_stats_line} afterwards. *)
val run : config -> Catalog.t -> Reply.t -> unit
