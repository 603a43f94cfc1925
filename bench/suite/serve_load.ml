(* Serve workloads: the built `uniqsql serve` binary, driven over its Unix
   socket by one generator on one connection. Every reply's label and
   framing is checked; reply bytes are compared with a cache-free
   [Serve.Reply.process] (all of serve_hot, a seeded 1-in-8 sample of
   serve_cold). *)

type temperature = Hot | Cold

(* Statements per write; the server's --max-batch, so one write is one
   server epoch. *)
let batch = 64
let cache_capacity = 1024
let pool_size = 256
let setup_repeats ~smoke = if smoke then 1 else 15

let server_args sock =
  [ "serve"; "--socket"; sock; "--jobs"; "1"; "--capacity"; string_of_int cache_capacity;
    "--max-batch"; string_of_int batch; "--max-inflight"; "1024" ]

(* ---- statements ---- *)

let shapes =
  [| "ex1"; "ex2"; "ex5"; "ex7"; "ex8"; "ex9"; "group_by"; "intersect"; "malformed" |]

(* Shapes the server classes as "analyze" (a plain SELECT block). *)
let analyze_shapes = [ 0; 1; 2; 3; 4 ]
let malformed = 8

(* Paper Examples 1, 2, 4 (traced in Example 5), 7, 8 and 9, a GROUP BY
   and an INTERSECT, with the literal [k] making each statement distinct. *)
let render shape k =
  match shape with
  | 0 ->
    Printf.sprintf
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
       S.SNO = P.SNO AND P.COLOR = 'C%d'" k
  | 1 ->
    Printf.sprintf
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
       S.SNO = P.SNO AND P.COLOR = 'C%d'" k
  | 2 ->
    Printf.sprintf
      "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P \
       WHERE P.SNO = %d AND S.SNO = P.SNO" k
  | 3 ->
    Printf.sprintf
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = 'N%d' AND \
       EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = %d)" k (k mod 7)
  | 4 ->
    Printf.sprintf
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM \
       PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'C%d')" k
  | 5 ->
    Printf.sprintf
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'T%d' INTERSECT SELECT \
       ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'H%d'" k k
  | 6 ->
    Printf.sprintf
      "SELECT P.SNO, P.PNO, COUNT(*) FROM PARTS P WHERE P.COLOR = 'C%d' GROUP \
       BY P.SNO, P.PNO" k
  | 7 ->
    Printf.sprintf
      "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'T%d' INTERSECT \
       SELECT DISTINCT P.SNO FROM PARTS P WHERE P.COLOR = 'C%d'" k k
  | _ ->
    if k mod 2 = 0 then
      Printf.sprintf "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = %d AND" k
    else Printf.sprintf "SELEC S.SNO FROM SUPPLIER S WHERE S.SNO = %d" k

(* About 2.5% malformed lines; the rest spread evenly over the shapes. *)
let draw_shape rng =
  if Random.State.float rng 1.0 < 0.025 then malformed else Random.State.int rng malformed

type stmt = { shape : int; sql : string; idx : int (* hot-pool slot; -1 when cold *) }

let hot_pool seed =
  let rng = Random.State.make [| seed; 0x484f54 |] in
  let seen = Hashtbl.create 512 in
  let rec fill acc n =
    if n = pool_size then Array.of_list (List.rev acc)
    else
      let shape = draw_shape rng in
      let sql = render shape (Random.State.int rng 1_000_000) in
      if Hashtbl.mem seen sql then fill acc n
      else begin
        Hashtbl.add seen sql ();
        fill ({ shape; sql; idx = n } :: acc) (n + 1)
      end
  in
  fill [] 0

(* A workload's request stream: the warm-up statements, then an endless
   seeded draw. serve_hot draws uniformly from its pool; serve_cold makes
   every statement new (a counter inside the literal). *)
let stream temp seed =
  match temp with
  | Hot ->
    let pool = hot_pool seed in
    let rng = Random.State.make [| seed; 0x44524157 |] in
    (pool, Array.to_list pool, fun () -> pool.(Random.State.int rng pool_size))
  | Cold ->
    let rng = Random.State.make [| seed; 0x434f4c44 |] in
    let counter = ref 0 in
    let next () =
      incr counter;
      let shape = draw_shape rng in
      { shape; sql = render shape ((!counter * 1000) + Random.State.int rng 1000); idx = -1 }
    in
    ([||], List.init 1000 (fun _ -> next ()), next)

(* ---- the connection ---- *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable partial : string;
  mutable lines : string list;  (* of the block being read, reversed *)
  blocks : string list Queue.t;  (* complete reply blocks, oldest first *)
}

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* One read; complete "."-terminated blocks move to [blocks]. *)
let read_some c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "server closed the connection";
  let rec go = function
    | [ last ] -> c.partial <- last
    | "." :: rest ->
      Queue.add (List.rev c.lines) c.blocks;
      c.lines <- [];
      go rest
    | line :: rest ->
      c.lines <- line :: c.lines;
      go rest
    | [] -> ()
  in
  go (String.split_on_char '\n' (c.partial ^ Bytes.sub_string c.chunk 0 n))

let rec next_block c =
  if Queue.is_empty c.blocks then begin
    read_some c;
    next_block c
  end
  else Queue.take c.blocks

type server = { pid : int; conn : conn }

let live : int list ref = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_live

let command srv line =
  write_all srv.conn.fd (line ^ "\n");
  next_block srv.conn

let spawn ~sock ~log =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) Server_exe.relative_path in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: server_args sock)) Unix.stdin out Unix.stderr
  in
  Unix.close out;
  live := pid :: !live;
  let deadline = Measure.now () +. 10. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Measure.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.0001;
      connect ()
  in
  let fd = connect () in
  { pid;
    conn = { fd; chunk = Bytes.create 65536; partial = ""; lines = []; blocks = Queue.create () } }

let stop srv =
  (try ignore (command srv "shutdown") with Failure _ | Unix.Unix_error _ -> ());
  Unix.close srv.conn.fd;
  let deadline = Measure.now () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Measure.now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ -> Unix.kill srv.pid Sys.sigkill; ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
  in
  wait ();
  live := List.filter (fun p -> p <> srv.pid) !live

(* Set-up time is spawn until the first [stats] reply, over several
   spawns (the fastest quartile), keeping the last server. *)
let start ~sock ~log ~repeats =
  let rec go i times =
    let t0 = Measure.now () in
    let srv = spawn ~sock ~log in
    ignore (command srv "stats");
    let times = (Measure.now () -. t0) :: times in
    if i + 1 < repeats then begin
      stop srv;
      go (i + 1) times
    end
    else (srv, Measure.low_quartile times)
  in
  go 0 []

(* [stats] reply: per-class latency facts and the key=value counters. *)
let parse_stats block =
  let cls = ref "" in
  let facts = Hashtbl.create 32 in
  let fact key value = Hashtbl.replace facts key value in
  List.iter
    (fun line ->
      let line = String.trim line in
      let words = String.split_on_char ' ' line in
      match words with
      | "<" :: "class" :: "=" :: [ c ] -> cls := c
      | ">" :: k :: "=" :: [ v ] -> fact (!cls ^ "." ^ k) v
      | ("stats" | "cache:") :: kvs ->
        List.iter
          (fun kv ->
            match String.index_opt kv '=' with
            | Some i -> fact (String.sub kv 0 i) (String.sub kv (i + 1) (String.length kv - i - 1))
            | None -> ())
          kvs
      | _ -> ())
    block;
  fun key ->
    match Hashtbl.find_opt facts key with
    | Some v -> float_of_string v
    | None -> failwith ("stats reply lacks " ^ key)

(* ---- issuing and checking requests ---- *)

type pending = { id : int; stmt : stmt; sampled : bool }

type checker = {
  report : Report.t;
  cat : Catalog.t;
  refs : string array;  (* hot: reference reply of each pool slot, label-free *)
  sample_rng : Random.State.t;
  mutable samples : (string * string * string) list;  (* label, sql, reply *)
  inflight : (int, pending) Hashtbl.t;  (* sent on the socket, keyed by label *)
  mutable last_admitted : int;
  mutable refused : int;
  mutable next_id : int;
}

(* The reply [Serve.Reply.process] gives with a fresh cache, label-free. *)
let reference cat sql = fst (Serve.Reply.process (Analysis_cache.create ()) cat ~label:"" sql)

let checker report cat pool seed =
  { report; cat; refs = Array.map (fun s -> reference cat s.sql) pool;
    sample_rng = Random.State.make [| seed; 0x53414d50 |]; samples = [];
    inflight = Hashtbl.create 2048; last_admitted = 0; refused = 0; next_id = 0 }

let attempt ck stmt =
  ck.next_id <- ck.next_id + 1;
  ck.report.Report.attempted <- ck.report.Report.attempted + 1;
  { id = ck.next_id; stmt; sampled = stmt.idx < 0 && Random.State.int ck.sample_rng 8 = 0 }

(* [reply] includes its newline. *)
let check_reply ck p ~label reply =
  if p.stmt.idx >= 0 then begin
    if reply <> label ^ ck.refs.(p.stmt.idx) then
      Report.fail ck.report (Printf.sprintf "reply %S differs from the reference for %s" reply p.stmt.sql)
  end
  else if p.sampled then ck.samples <- (label, p.stmt.sql, reply) :: ck.samples

type outcome = Answered of pending | Refused of pending | Malformed

(* One reply block: one line, labelled with an outstanding request.
   Admitted requests are answered in request order; an "overloaded"
   refusal is sent at once and may overtake them. *)
let on_block ck block =
  let bad why =
    Report.fail ck.report (Printf.sprintf "%s: %S" why (String.concat "\\n" block));
    Malformed
  in
  match block with
  | [ line ] when String.length line > 0 && line.[0] = '[' -> (
    let close = Option.value (String.index_opt line ']') ~default:0 in
    match int_of_string_opt (String.sub line 1 (max 0 (close - 1))) with
    | Some id when Hashtbl.mem ck.inflight id ->
      let p = Hashtbl.find ck.inflight id in
      Hashtbl.remove ck.inflight id;
      let label = String.sub line 0 (close + 1) in
      if line = label ^ " overloaded" then begin
        ck.refused <- ck.refused + 1;
        Refused p
      end
      else begin
        if id < ck.last_admitted then
          Report.fail ck.report
            (Printf.sprintf "reply %d arrived after reply %d" id ck.last_admitted);
        ck.last_admitted <- id;
        check_reply ck p ~label (line ^ "\n");
        Answered p
      end
    | _ -> bad "reply to no outstanding request")
  | _ -> bad "malformed reply block"

let verify_samples ck =
  List.iter
    (fun (label, sql, reply) ->
      if reply <> label ^ reference ck.cat sql then
        Report.fail ck.report (Printf.sprintf "reply %S differs from the reference for %s" reply sql))
    ck.samples;
  ck.samples <- []

(* ---- load phases ---- *)

let send srv ck stmts =
  let buf = Buffer.create 8192 in
  List.iter
    (fun p ->
      Hashtbl.replace ck.inflight p.id p;
      Buffer.add_string buf p.stmt.sql;
      Buffer.add_char buf '\n')
    stmts;
  if stmts <> [] then write_all srv.conn.fd (Buffer.contents buf)

(* Wait up to [timeout] seconds for reply bytes; false when none came. *)
let await srv timeout =
  match Unix.select [ srv.conn.fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> read_some srv.conn; true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* Requests still unanswered after a phase are failures. *)
let abandon ck =
  Hashtbl.iter
    (fun id _ -> Report.fail ck.report (Printf.sprintf "no reply to request %d" id))
    ck.inflight;
  Hashtbl.reset ck.inflight

let stall_s = 10.

let window_s = 0.5

(* What one [window_s] window of the load saw: replies, the time its
   batches took, and (shape, ms) latency samples. *)
type window = {
  mutable replies : int;
  mutable busy_s : float;
  mutable samples : (int * float) list;
}

(* Closed loop in batches: send [batch] statements in one write, wait for
   every reply, repeat for [seconds] (at least once). Each request is
   timed from its batch's write to its reply, and batches are grouped
   into windows by when they were sent. A refused request records the
   run length, missing any latency limit.

   Waiting for the whole batch keeps one write one server epoch:
   refilling on every reply let the server's read batches fragment at
   random, which made the rate bimodal. And the server never idles: in
   an open loop at half load the host hands the idle core to other
   tenants, and the same bursts took 8 to 13 ms from run to run on the
   reference box. *)
let closed_loop srv ck ~batch ~seconds ~next =
  let t0 = Measure.now () in
  let n = max 1 (int_of_float (Float.ceil (seconds /. window_s))) in
  let windows = Array.init n (fun _ -> { replies = 0; busy_s = 0.; samples = [] }) in
  let stalled = ref false in
  let first = ref true in
  while (!first || Measure.now () < t0 +. seconds) && not !stalled do
    first := false;
    let sent = Measure.now () in
    let w = windows.(min (n - 1) (int_of_float ((sent -. t0) /. window_s))) in
    send srv ck (List.init batch (fun _ -> attempt ck (next ())));
    while Hashtbl.length ck.inflight > 0 && not !stalled do
      if Queue.is_empty srv.conn.blocks then stalled := not (await srv stall_s);
      let ms = (Measure.now () -. sent) *. 1000. in
      while not (Queue.is_empty srv.conn.blocks) do
        match on_block ck (Queue.take srv.conn.blocks) with
        | Answered p ->
          w.replies <- w.replies + 1;
          w.samples <- (p.stmt.shape, ms) :: w.samples
        | Refused p -> w.samples <- (p.stmt.shape, seconds *. 1000.) :: w.samples
        | Malformed -> ()
      done
    done;
    w.busy_s <- w.busy_s +. (Measure.now () -. sent)
  done;
  abandon ck;
  List.filter (fun w -> w.samples <> []) (Array.to_list windows)

(* Rate, p50, p90, and the geometric mean over shapes of each shape's
   median, in one window. *)
let window_stats w =
  let all = Measure.sorted_of_list (List.map snd w.samples) in
  let shape_medians =
    List.init (Array.length shapes) (fun s ->
        Measure.median (List.filter_map (fun (s', ms) -> if s' = s then Some ms else None) w.samples))
  in
  ( Measure.ratio (float_of_int w.replies) w.busy_s,
    Measure.percentile all 0.5,
    Measure.percentile all 0.9,
    Measure.geomean shape_medians )

(* ---- the in-process replay of the traced run ---- *)

(* [Serve.Reply.process] with a span around each layer call it makes.
   Replies are checked against the reference, which keeps this mirror
   honest. *)
let traced_process cache cat ~label sql =
  let span = Spans.with_span in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  (match span "sql.parse" (fun () -> Sql.Parser.parse_query sql) with
   | exception Sql.Parser.Parse_error msg -> Format.fprintf ppf "%s parse error: %s@." label msg
   | exception Sql.Lexer.Lex_error (msg, off) ->
     Format.fprintf ppf "%s lex error at byte %d: %s@." label off msg
   | q -> (
     try
       (match q with
        | Sql.Ast.Spec s when s.Sql.Ast.group_by = [] ->
          let alg1 =
            span "uniqueness.alg1" (fun () ->
                Uniqueness.Algorithm1.distinct_is_redundant ~cache cat s)
          in
          let fd =
            span "uniqueness.fd" (fun () ->
                Uniqueness.Fd_analysis.distinct_is_redundant ~cache cat s)
          in
          Format.fprintf ppf "%s unique(alg1)=%b unique(fd)=%b" label alg1 fd
        | _ -> Format.fprintf ppf "%s unique=n/a" label);
       let final, outcomes =
         span "uniqueness.rewrite" (fun () -> Uniqueness.Rewrite.apply_all ~cache cat q)
       in
       Format.fprintf ppf " rewrites=%d" (List.length outcomes);
       if outcomes <> [] then
         Format.fprintf ppf " final=%s" (span "sql.pretty" (fun () -> Sql.Pretty.query final));
       Format.fprintf ppf "@."
     with e -> Format.fprintf ppf "%s error: %s@." label (Printexc.to_string e)));
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Replay the stream in-process as the server runs it: one 1,024-entry
   cache, one epoch per 64 requests, closure memo on. Returns the mean
   seconds per request. *)
let replay ck ~traced ~warmup ~next ~seconds =
  let cache = Analysis_cache.create ~capacity:cache_capacity () in
  Cache.Runtime.clear ();
  let busy = ref 0. and n = ref 0 in
  let one stmt =
    let p = attempt ck stmt in
    let label = Printf.sprintf "[%d]" p.id in
    let t0 = Measure.now () in
    let reply =
      if traced then Spans.root "request" (fun () -> traced_process cache ck.cat ~label stmt.sql)
      else fst (Serve.Reply.process cache ck.cat ~label stmt.sql)
    in
    busy := !busy +. (Measure.now () -. t0);
    incr n;
    check_reply ck p ~label reply
  in
  let rec batches stmts =
    match stmts with
    | [] -> ()
    | _ ->
      let batch = List.filteri (fun i _ -> i < 64) stmts in
      Analysis_cache.epoch cache (fun () -> List.iter one batch);
      batches (List.filteri (fun i _ -> i >= 64) stmts)
  in
  Cache.Runtime.with_enabled true (fun () ->
      batches warmup;
      busy := 0.;
      n := 0;
      let deadline = Measure.now () +. seconds in
      while Measure.now () < deadline do
        batches (List.init 64 (fun _ -> next ()))
      done);
  Measure.ratio !busy (float_of_int !n)

(* ---- the workload ---- *)

let run ~workload ~seed ~seconds ~traced ~smoke ~dir report =
  let temp =
    match workload with
    | "serve_hot" -> Hot
    | "serve_cold" -> Cold
    | w -> invalid_arg ("not a serve workload: " ^ w)
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a terminated benchmark still stops its server (see [kill_live]) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let cat = Workload.Paper_schema.catalog () in
  let pool, warmup, next = stream temp seed in
  let ck = checker report cat pool seed in
  Report.note report "batch" (Trace.Json.Int batch);
  Report.note report "server" (Trace.Json.String (String.concat " " (server_args "SOCKET")));
  let sock = Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let log = Filename.concat dir "server.log" in
  let srv, setup_s = start ~sock ~log ~repeats:(setup_repeats ~smoke) in
  Report.set report "setup_s" "s" setup_s;
  Fun.protect ~finally:(fun () -> stop srv) (fun () ->
      (* warm-up one request at a time *)
      List.iter
        (fun stmt -> ignore (closed_loop srv ck ~batch:1 ~seconds:0. ~next:(fun () -> stmt)))
        warmup;
      let windows =
        closed_loop srv ck ~batch ~seconds:(if traced then seconds /. 2. else seconds) ~next
      in
      let stats = parse_stats (command srv "stats") in
      Report.set report "peak_rss_mb" "MB" (Measure.peak_rss_mb ~pid:(string_of_int srv.pid) ());
      (* the fastest quartile of the per-window readings: interference from
         other tenants slows some windows and never speeds one up *)
      let per_window = List.map window_stats windows in
      let fastest f = Measure.low_quartile (List.map f per_window) in
      Report.set report "throughput_qps" "1/s"
        (Measure.high_quartile (List.map (fun (rate, _, _, _) -> rate) per_window));
      Report.set report "latency_p50_ms" "ms" (fastest (fun (_, p50, _, _) -> p50));
      Report.set report "latency_p90_ms" "ms" (fastest (fun (_, _, p90, _) -> p90));
      Report.set report "latency_geomean_ms" "ms" (fastest (fun (_, _, _, geo) -> geo));
      if traced then begin
        let analyze =
          List.concat_map
            (fun w ->
              List.filter_map
                (fun (s, ms) -> if List.mem s analyze_shapes then Some ms else None)
                w.samples)
            windows
        in
        let server_p50 = stats "analyze.p50_us" /. 1000. in
        Report.set report "serve.server_p50_ms" "ms" server_p50;
        Report.set report "serve.server_p99_ms" "ms" (stats "analyze.p99_us" /. 1000.);
        Report.set report "serve.wire_ms" "ms" (Measure.median analyze -. server_p50);
        Report.set report "serve.refused" "count" (float_of_int ck.refused);
        let hits = stats "verdict_hits" and misses = stats "verdict_misses" in
        Report.set report "cache.verdict_hit_ratio" "ratio" (Measure.ratio hits (hits +. misses));
        Report.set report "cache.verdict_evictions" "count" (stats "verdict_evictions");
        let mhits = stats "closure_memo_hits" and mmisses = stats "closure_memo_misses" in
        Report.set report "cache.closure_memo_hit_ratio" "ratio"
          (Measure.ratio mhits (mhits +. mmisses))
      end);
  if traced then begin
    let _, warmup, next = stream temp seed in
    let plain = replay ck ~traced:false ~warmup ~next ~seconds:(seconds /. 4.) in
    let _, warmup, next = stream temp seed in
    Spans.reset ();
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let with_spans = replay ck ~traced:true ~warmup ~next ~seconds:(seconds /. 4.) in
    let g1 = Gc.quick_stat () in
    let ops = float_of_int (max 1 (Spans.count "request")) in
    List.iter
      (fun name -> Report.set report (name ^ "_us") "us" (Spans.mean_self_s name *. 1e6))
      [ "sql.parse"; "sql.pretty"; "uniqueness.alg1"; "uniqueness.fd"; "uniqueness.rewrite" ];
    Report.gc report g0 g1 ~ops;
    Report.set report "trace.coverage_pct" "%" (Spans.coverage_pct "request");
    Report.set report "trace.overhead_pct" "%" (100. *. (Measure.ratio with_spans plain -. 1.))
  end;
  verify_samples ck
