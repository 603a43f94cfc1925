(* The concurrent serve front end: one select-based event loop
   multiplexing a Unix-socket listener and/or stdin, dispatching admitted
   requests to the analysis pool in micro-batch epochs.

   Every front end is a [conn]: stdin is an unframed connection whose
   replies go to stdout; socket connections frame each reply block with a
   terminating "." line so clients can pipeline. Requests are admitted
   into one FIFO queue bounded by [max_inflight] — beyond it the server
   answers "<label> overloaded" immediately instead of buffering without
   bound — and dispatched in arrival order, at most [max_batch] per
   epoch, through [Reply.run_batch]. Replies leave in request order per
   connection (the pool preserves order), so the reply stream is
   byte-identical at any [--jobs].

   The loop is single-threaded: reads, admission, reply-memo lookups and
   reply writes happen on the submitting domain; only the analysis itself
   fans out. A batch in flight therefore delays reads — arriving bytes
   wait in kernel buffers — which is exactly what the admission bound is
   for: the queue measures how far behind the analyses are, not how fast
   clients write. A batch's replies to one connection leave in one write,
   from one write buffer the server owns and reuses.

   Shutdown (SIGTERM/SIGINT via the [stop] flag, a "shutdown" command, or
   EOF on every connection of a listener-less server) drains: pending
   requests are analyzed and their replies flushed before anything
   closes. *)

type config = {
  socket_path : string option;
  use_stdin : bool;
  jobs : int;
  max_inflight : int;
  max_batch : int;
  test_delay_s : float;
  stop : bool Atomic.t;
}

let default_config () =
  {
    socket_path = None;
    use_stdin = true;
    jobs = 1;
    max_inflight = 1024;
    max_batch = 64;
    test_delay_s = 0.;
    stop = Atomic.make false;
  }

type conn = {
  fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  framed : bool;
  buf : Buffer.t;  (* the partial line read so far *)
  mutable discarding : bool;  (* inside a line refused as too long *)
  mutable next_id : int;
  mutable open_ : bool;
}

type request = {
  rq_conn : conn;
  rq_label : string;
  rq_sql : string;
  rq_arrived : float;
}

type t = {
  cfg : config;
  cat : Catalog.t;
  session : Reply.t;
  pool : Parallel.Pool.t;
  mutable out : Bytes.t;  (* replies to one connection, [out_len] bytes *)
  mutable out_len : int;
  listen_fd : Unix.file_descr option;
  mutable conns : conn list;
  pending : request Queue.t;
  hists : (Reply.request_class * Engine.Histogram.t) list;
  mutable served : int;
  mutable rejected : int;
  mutable inflight_peak : int;
  mutable draining : bool;
}

(* ---- writing ---- *)

(* The write buffer starts small and keeps the size the batches need; one
   that grew past [out_cap] for a huge reply is dropped after its write. *)
let out_size = 4096
let out_cap = 1 lsl 20

let add_out t s =
  let n = String.length s in
  if t.out_len + n > Bytes.length t.out then begin
    let grown = Bytes.create (max (2 * Bytes.length t.out) (t.out_len + n)) in
    Bytes.blit t.out 0 grown 0 t.out_len;
    t.out <- grown
  end;
  Bytes.blit_string s 0 t.out t.out_len n;
  t.out_len <- t.out_len + n

(* Queue one reply block for [conn]: the payload, then the frame. *)
let add_reply t conn payload =
  add_out t payload;
  if conn.framed then add_out t ".\n"

(* Write the queued replies in one go. A dead client must not kill the
   server: EPIPE (and any other write failure) closes the connection and
   drops the replies. *)
let flush_out t conn =
  (if conn.open_ then
     try
       let rec go off =
         if off < t.out_len then
           go (off + Unix.write conn.out_fd t.out off (t.out_len - off))
       in
       go 0
     with Unix.Unix_error _ -> conn.open_ <- false);
  t.out_len <- 0;
  if Bytes.length t.out > out_cap then t.out <- Bytes.create out_size

let send t conn payload =
  add_reply t conn payload;
  flush_out t conn

(* ---- stats ---- *)

let stats_text t =
  let summaries =
    List.map
      (fun c ->
        (Reply.class_name c, Engine.Histogram.summary (List.assoc c t.hists)))
      Reply.all_classes
  in
  let sec = Explain.latency_section summaries in
  Format.asprintf
    "stats jobs=%d served=%d rejected=%d inflight_peak=%d@.%s@.%s@.%s@.%a"
    t.cfg.jobs t.served t.rejected t.inflight_peak
    (Reply.cache_stats_line t.session)
    sec.Explain.title
    (String.make (String.length sec.Explain.title) '-')
    Trace.pp sec.Explain.nodes

(* ---- dispatch ---- *)

let dispatch_batch t =
  if not (Queue.is_empty t.pending) then begin
    (* Test hook: an artificial stall lets the protocol tests fill the
       admission queue deterministically. Zero in production. *)
    if t.cfg.test_delay_s > 0. then Unix.sleepf t.cfg.test_delay_s;
    let n = min t.cfg.max_batch (Queue.length t.pending) in
    let reqs = List.init n (fun _ -> Queue.take t.pending) in
    let replies =
      Reply.run_batch t.pool t.session t.cat
        (List.map (fun r -> (r.rq_label, r.rq_sql)) reqs)
    in
    let stop = Unix.gettimeofday () in
    let answered = List.combine reqs replies in
    List.iter
      (fun (rq, (_, cls)) ->
        Engine.Histogram.record_span (List.assoc cls t.hists)
          ~start:rq.rq_arrived ~stop;
        t.served <- t.served + 1)
      answered;
    (* one write per connection, its replies in request order *)
    let rec write = function
      | [] -> ()
      | (rq, _) :: _ as answered ->
        let conn = rq.rq_conn in
        let mine, others =
          List.partition (fun (r, _) -> r.rq_conn == conn) answered
        in
        List.iter (fun (_, (text, _)) -> add_reply t conn text) mine;
        flush_out t conn;
        write others
    in
    write answered
  end

let drain_pending t =
  while not (Queue.is_empty t.pending) do
    dispatch_batch t
  done

(* ---- line protocol ---- *)

let starts_with_dashes line =
  String.length line >= 2 && String.sub line 0 2 = "--"

let handle_line t conn line =
  let line = String.trim line in
  if line = "" || starts_with_dashes line then ()
  else if line = "stats" || line = ".stats" then begin
    (* The counters must reflect every request admitted before this
       command on any connection, so the queue drains first. *)
    drain_pending t;
    send t conn (stats_text t ^ "\n")
  end
  else if line = "shutdown" then begin
    send t conn "draining\n";
    t.draining <- true
  end
  else begin
    conn.next_id <- conn.next_id + 1;
    let label = Printf.sprintf "[%d]" conn.next_id in
    if Queue.length t.pending >= t.cfg.max_inflight then begin
      t.rejected <- t.rejected + 1;
      send t conn (label ^ " overloaded\n")
    end
    else begin
      Queue.add
        { rq_conn = conn; rq_label = label; rq_sql = line;
          rq_arrived = Unix.gettimeofday () }
        t.pending;
      if Queue.length t.pending > t.inflight_peak then
        t.inflight_peak <- Queue.length t.pending
    end
  end

(* The longest request line the server buffers. A longer one is refused
   with "<label> line too long" as soon as it outgrows the limit, and the
   rest of it is dropped up to its newline. *)
let max_line_bytes = 1 lsl 20

(* The refusal is answered in request order, like any other reply. *)
let refuse_long_line t conn =
  drain_pending t;
  conn.next_id <- conn.next_id + 1;
  send t conn (Printf.sprintf "[%d] line too long\n" conn.next_id);
  Buffer.clear conn.buf;
  conn.discarding <- true

let add_to_line t conn chunk start stop =
  if not conn.discarding then
    if Buffer.length conn.buf + (stop - start) > max_line_bytes then
      refuse_long_line t conn
    else Buffer.add_subbytes conn.buf chunk start (stop - start)

(* Split the [n] bytes just read into lines, in place. Only the new bytes
   are scanned, and the trailing partial line stays buffered (handled on
   EOF if non-empty). *)
let take_lines t conn chunk n =
  let rec newline i =
    if i >= n then None else if Bytes.get chunk i = '\n' then Some i else newline (i + 1)
  in
  let rec go start =
    match newline start with
    | Some i ->
      add_to_line t conn chunk start i;
      if conn.discarding then conn.discarding <- false
      else begin
        let line = Buffer.contents conn.buf in
        Buffer.clear conn.buf;
        handle_line t conn line
      end;
      go (i + 1)
    | None -> add_to_line t conn chunk start n
  in
  go 0

(* Each read gets a fresh chunk. Reusing one per server stops these
   allocations, and with them much of the major GC's pacing: on the
   serve_cold workload major collections fell from 209 to 66 and peak RSS
   rose from 9.9 to 10.8 MB. *)
let read_size = 65536

let read_conn t conn =
  let chunk = Bytes.create read_size in
  match Unix.read conn.fd chunk 0 read_size with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> conn.open_ <- false
  | 0 ->
    if Buffer.length conn.buf > 0 then handle_line t conn (Buffer.contents conn.buf);
    Buffer.clear conn.buf;
    conn.open_ <- false
  | n -> take_lines t conn chunk n

(* ---- the loop ---- *)

let accept_conn t fd =
  match Unix.accept fd with
  | exception Unix.Unix_error _ -> ()
  | client, _ ->
    t.conns <-
      t.conns
      @ [ { fd = client; out_fd = client; framed = true; buf = Buffer.create 256;
            discarding = false; next_id = 0; open_ = true } ]

let live_conns t = List.filter (fun c -> c.open_) t.conns

let run cfg cat session =
  (* A client that disconnects mid-reply must surface as EPIPE on the
     write (handled in [flush_out]), not as a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd =
    match cfg.socket_path with
    | None -> None
    | Some path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Some fd
  in
  Parallel.Pool.with_pool ~jobs:cfg.jobs (fun pool ->
      let t =
        {
          cfg;
          cat;
          session;
          pool;
          out = Bytes.create out_size;
          out_len = 0;
          listen_fd;
          conns =
            (if cfg.use_stdin then
               [ { fd = Unix.stdin; out_fd = Unix.stdout; framed = false;
                   buf = Buffer.create 256; discarding = false; next_id = 0;
                   open_ = true } ]
             else []);
          pending = Queue.create ();
          hists =
            List.map (fun c -> (c, Engine.Histogram.create ())) Reply.all_classes;
          served = 0;
          rejected = 0;
          inflight_peak = 0;
          draining = false;
        }
      in
      let rec loop () =
        t.conns <- live_conns t;
        if Atomic.get cfg.stop || t.draining then ()
        else if t.conns = [] && listen_fd = None then ()
        else begin
          let fds =
            (match listen_fd with Some fd -> [ fd ] | None -> [])
            @ List.map (fun c -> c.fd) t.conns
          in
          let timeout = if Queue.is_empty t.pending then 0.2 else 0. in
          (match Unix.select fds [] [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
            (match listen_fd with
            | Some fd when List.memq fd ready -> accept_conn t fd
            | _ -> ());
            List.iter
              (fun c -> if List.memq c.fd ready then read_conn t c)
              t.conns);
          dispatch_batch t;
          loop ()
        end
      in
      Fun.protect
        ~finally:(fun () ->
          (* Graceful drain: every admitted request is answered and
             flushed before anything closes. *)
          drain_pending t;
          List.iter
            (fun c ->
              if c.fd != Unix.stdin then
                try Unix.close c.fd with Unix.Unix_error _ -> ())
            t.conns;
          (match listen_fd with
          | None -> ()
          | Some fd -> (
            (try Unix.close fd with Unix.Unix_error _ -> ());
            match cfg.socket_path with
            | Some path -> (
              try Unix.unlink path with Unix.Unix_error _ -> ())
            | None -> ())))
        loop)
