(* End-to-end tests of the socket serve front end: a real server runs in
   its own domain, a real client connects over a Unix socket, and the
   framed line protocol is exercised the way an operator's tooling would
   — pipelined requests, byte-identical replies across --jobs levels,
   deterministic `overloaded` admission rejection, the `stats` command,
   and the draining shutdown handshake. *)

module Server = Serve.Server
module Reply = Serve.Reply

let catalog = Workload.Paper_schema.catalog ()
let view_ddl = "CREATE VIEW V AS SELECT S.SNO, S.SNAME FROM SUPPLIER S"

let socket_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "uniqsql_test_%d_%s.sock" (Unix.getpid ()) tag)

(* ---- a tiny blocking client ---- *)

let connect path =
  (* the server binds asynchronously in its own domain; retry briefly *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* One write: on a fresh AF_UNIX stream the whole burst reaches the
   server's next read as a single chunk, which is what makes the
   admission test deterministic. *)
let send_lines fd lines = write_all fd (String.concat "\n" lines ^ "\n")

(* Read reply blocks — each terminated by a "." line — until [n] blocks
   have arrived or the peer closes. Returns the blocks in arrival order,
   each with its terminator stripped. *)
let read_blocks fd n =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let count_terminators s =
    String.split_on_char '\n' s
    |> List.filter (fun l -> l = ".")
    |> List.length
  in
  let rec fill () =
    if count_terminators (Buffer.contents buf) < n then
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | got ->
        Buffer.add_subbytes buf chunk 0 got;
        fill ()
  in
  fill ();
  let rec split acc cur = function
    | [] -> List.rev acc
    | "." :: rest -> split (String.concat "\n" (List.rev cur) :: acc) [] rest
    | l :: rest -> split acc (l :: cur) rest
  in
  (* drop the trailing "" from the final newline *)
  let lines =
    match List.rev (String.split_on_char '\n' (Buffer.contents buf)) with
    | "" :: rest -> List.rev rest
    | all -> List.rev all
  in
  split [] [] lines

(* ---- server lifecycle ---- *)

let with_server ?(jobs = 2) ?(max_inflight = 1024) ?(max_batch = 64)
    ?(test_delay_s = 0.) tag k =
  let path = socket_path tag in
  let cfg =
    {
      (Server.default_config ()) with
      Server.socket_path = Some path;
      use_stdin = false;
      jobs;
      max_inflight;
      max_batch;
      test_delay_s;
    }
  in
  let session = Reply.create () in
  let dom =
    Domain.spawn (fun () ->
        Cache.Runtime.with_enabled true @@ fun () ->
        Server.run cfg catalog session)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set cfg.Server.stop true;
      Domain.join dom;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> k path)

let queries =
  [ "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 's1'";
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = \
     P.SNO";
    "SELECT S.SNO FROM SUPPLIER S UNION SELECT P.SNO FROM PARTS P";
    "THIS IS NOT SQL";
    "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 's1'" ]

(* what the reply to query [i] (1-based label) must say, computed through
   the same pure payload the server uses *)
let expected_replies () =
  let cache = Analysis_cache.create () in
  List.mapi
    (fun i sql ->
      let text, _cls =
        Reply.process cache catalog ~label:(Printf.sprintf "[%d]" (i + 1)) sql
      in
      (* framed blocks carry the text without its trailing newline *)
      String.sub text 0 (String.length text - 1))
    queries

let test_pipelined_replies () =
  with_server "pipe" @@ fun path ->
  let fd = connect path in
  send_lines fd queries;
  let blocks = read_blocks fd (List.length queries) in
  Unix.close fd;
  Alcotest.(check (list string))
    "framed replies in request order, matching the batch payload"
    (expected_replies ()) blocks

(* replies must be byte-identical whatever --jobs the server runs *)
let test_byte_identical_across_jobs () =
  let transcript jobs tag =
    with_server ~jobs tag @@ fun path ->
    let fd = connect path in
    send_lines fd queries;
    let blocks = read_blocks fd (List.length queries) in
    Unix.close fd;
    blocks
  in
  Alcotest.(check (list string))
    "jobs=1 and jobs=2 reply streams identical" (transcript 1 "j1")
    (transcript 2 "j2")

(* two clients whose requests share dispatch batches each get their own
   replies, in their own request order: with two requests per batch and
   a stall before each, the first client's fifth request shares a batch
   with the second client's first *)
let test_two_connections () =
  with_server ~jobs:2 ~max_batch:2 ~test_delay_s:0.02 "two" @@ fun path ->
  let a = connect path and b = connect path in
  (* a reply sent to the wrong client fails the test instead of hanging it *)
  List.iter (fun fd -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.) [ a; b ];
  let b_queries = List.rev queries in
  send_lines a queries;
  send_lines b b_queries;
  let got_a = read_blocks a (List.length queries) in
  let got_b = read_blocks b (List.length queries) in
  Unix.close a;
  Unix.close b;
  let expected qs =
    List.mapi
      (fun i sql ->
        let text, _ =
          Reply.process (Analysis_cache.create ()) catalog
            ~label:(Printf.sprintf "[%d]" (i + 1)) sql
        in
        String.sub text 0 (String.length text - 1))
      qs
  in
  Alcotest.(check (list string)) "first client" (expected queries) got_a;
  Alcotest.(check (list string)) "second client" (expected b_queries) got_b

(* an integer literal too large for an int is a lex error for that
   request alone: the session answers it and goes on *)
let test_oversized_literal_then_good_request () =
  with_server "bigint" @@ fun path ->
  let fd = connect path in
  send_lines fd
    [ "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 99999999999999999999";
      List.nth queries 0 ];
  let blocks = read_blocks fd 2 in
  Unix.close fd;
  match blocks with
  | [ bad; good ] ->
    Alcotest.(check bool) ("lex error reply: " ^ bad) true
      (String.starts_with ~prefix:"[1] lex error" bad);
    Alcotest.(check string) "then a normal reply"
      "[2] unique(alg1)=true unique(fd)=true rewrites=1 final=SELECT ALL \
       S.SNO FROM SUPPLIER S WHERE S.SNO = 's1'"
      good
  | _ ->
    Alcotest.fail
      (Printf.sprintf "expected two reply blocks, got %d" (List.length blocks))

(* admission control: a burst written in one chunk against a stalled
   single-request dispatcher admits exactly max_inflight requests and
   fast-rejects the rest *)
let test_overloaded_rejection_and_stats () =
  with_server ~jobs:1 ~max_inflight:2 ~max_batch:1 ~test_delay_s:0.05
    "admit"
  @@ fun path ->
  let fd = connect path in
  let burst = List.init 6 (fun _ -> List.nth queries 0) in
  send_lines fd burst;
  let blocks = read_blocks fd 6 in
  let overloaded, analyzed =
    List.partition (String.ends_with ~suffix:" overloaded") blocks
  in
  Alcotest.(check int) "exactly max_inflight admitted" 2
    (List.length analyzed);
  Alcotest.(check int) "the rest rejected fast" 4 (List.length overloaded);
  List.iter
    (fun b ->
      Alcotest.(check bool) "admitted replies carry verdicts" true
        (String.length b > 0
        && String.index_opt b '=' <> None))
    analyzed;
  (* stats drains first, then reports: everything above is accounted *)
  send_lines fd [ "stats" ];
  (match read_blocks fd 1 with
  | [ stats ] ->
    let has s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "serve counters present" true
      (has stats "served=2 rejected=4");
    Alcotest.(check bool) "cache line present" true
      (has stats "cache: verdict_hits=");
    Alcotest.(check bool) "latency section present" true
      (has stats "latency")
  | blocks ->
    Alcotest.fail
      (Printf.sprintf "expected one stats block, got %d" (List.length blocks)));
  (* graceful shutdown: the server acknowledges, drains, and closes *)
  send_lines fd [ "shutdown" ];
  (match read_blocks fd 1 with
  | [ d ] -> Alcotest.(check string) "drain acknowledged" "draining" d
  | _ -> Alcotest.fail "expected a draining block");
  let eof = Bytes.create 1 in
  Alcotest.(check int) "connection closed after drain" 0
    (Unix.read fd eof 0 1);
  Unix.close fd

(* a line with no newline in sight is refused once it outgrows the
   limit; the server reads each byte once (buffering all 16 MiB and
   re-scanning it on every read took seconds), and the session goes on *)
let test_long_line_refused () =
  with_server "long" @@ fun path ->
  let fd = connect path in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  let t0 = Unix.gettimeofday () in
  write_all fd (String.make (16 lsl 20) 'x');
  send_lines fd [ ""; List.nth queries 0 ];
  let blocks = read_blocks fd 2 in
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close fd;
  Alcotest.(check (list string))
    "refused, then a normal reply"
    [ "[1] line too long";
      "[2] unique(alg1)=true unique(fd)=true rewrites=1 final=SELECT ALL \
       S.SNO FROM SUPPLIER S WHERE S.SNO = 's1'" ]
    blocks;
  Alcotest.(check bool)
    (Printf.sprintf "16 MiB handled in linear time (%.2f s)" elapsed)
    true (elapsed < 2.)

(* whatever the parser raises is a typed parse error, a stack overflow
   included *)
let test_deep_nesting_is_a_parse_error () =
  let n = 1_000_000 in
  let sql =
    "SELECT S.SNO FROM SUPPLIER S WHERE " ^ String.make n '(' ^ "S.SNO = 1"
    ^ String.make n ')'
  in
  let gc = Gc.get () in
  Gc.set { gc with Gc.stack_limit = 1 lsl 20 };
  let text, cls =
    Fun.protect
      ~finally:(fun () -> Gc.set gc)
      (fun () -> Reply.process (Analysis_cache.create ()) catalog ~label:"[1]" sql)
  in
  Alcotest.(check string) "typed reply" "[1] parse error: input nested too deeply\n"
    text;
  Alcotest.(check bool) "error class" true (cls = Reply.Error)

(* ---- the reply memo ---- *)

(* Statements of every reply class, with repeats drawn from this pool. *)
let memo_pool =
  [| "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 's1'";
     "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
     "SELECT DISTINCT S.SNAME FROM SUPPLIER S";
     "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM \
      PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')";
     "SELECT S.SNO FROM SUPPLIER S UNION SELECT P.SNO FROM PARTS P";
     "SELECT P.SNO, P.PNO, COUNT(*) FROM PARTS P GROUP BY P.SNO, P.PNO";
     "SELECT DISTINCT V.SNO FROM V";
     "SELECT DISTINCT X.A FROM NOWHERE X";
     "THIS IS NOT SQL";
     "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 99999999999999999999" |]

(* A seeded stream of [n] labelled requests: drawn from [memo_pool], or
   all new (a distinct literal in each). *)
let stream ~seed ~fresh n =
  let rng = Random.State.make [| seed |] in
  List.init n (fun i ->
      let sql =
        if fresh then
          Printf.sprintf "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNAME = 'n%d'" i
        else memo_pool.(Random.State.int rng (Array.length memo_pool))
      in
      (Printf.sprintf "[%d]" (i + 1), sql))

(* Cut a stream into server-sized batches of seeded random length. *)
let batches ~seed items =
  let rng = Random.State.make [| seed; 1 |] in
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = 0 then go (List.rev cur :: acc) [ x ] (Random.State.int rng 64) rest
      else go acc (x :: cur) (k - 1) rest
  in
  match items with [] -> [] | x :: rest -> go [] [ x ] (Random.State.int rng 64) rest

(* Answer [items] in [batches] through one session on a [jobs] pool;
   the replies and the session's stats line. *)
let through_memo ?(cat = catalog) ?session ~jobs ~seed items =
  let session = match session with Some s -> s | None -> Reply.create () in
  Cache.Runtime.with_enabled true @@ fun () ->
  Parallel.Pool.with_pool ~jobs @@ fun pool ->
  let replies =
    List.concat_map (Reply.run_batch pool session cat) (batches ~seed items)
  in
  (replies, Reply.cache_stats_line session)

let reference ?(cat = catalog) items =
  List.map
    (fun (label, sql) -> Reply.process (Analysis_cache.create ()) cat ~label sql)
    items

let stat line key =
  let prefix = key ^ "=" in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char ' ' line)
  with
  | Some kv ->
    int_of_string (String.sub kv (String.length prefix) (String.length kv - String.length prefix))
  | None -> Alcotest.failf "%s missing from %S" key line

let pp_replies = Alcotest.(list (pair string (of_pp (fun ppf c -> Format.pp_print_string ppf (Reply.class_name c)))))

(* The memo is invisible: replies and classes equal the uncached ones at
   any job count, for streams with repeats and for all-new ones. *)
let test_memo_invisible () =
  List.iter
    (fun (seed, fresh) ->
      let items = stream ~seed ~fresh 400 in
      let want = reference items in
      List.iter
        (fun jobs ->
          let got, line = through_memo ~jobs ~seed items in
          Alcotest.check pp_replies
            (Printf.sprintf "seed %d%s, jobs %d" seed (if fresh then " (all new)" else "") jobs)
            want got;
          if fresh then
            Alcotest.(check int) "all-new traffic stores no replies" 0
              (stat line "reply_entries")
          else
            Alcotest.(check bool) "repeats are served from the memo" true
              (stat line "reply_hits" > 0))
        [ 1; 4 ])
    [ (1, false); (2, false); (3, false); (4, true) ]

(* Admission on the second sighting: the first two are computed, the
   third is a hit. *)
let test_memo_second_sighting () =
  let sql = memo_pool.(1) in
  let session = Reply.create () in
  let line =
    List.fold_left
      (fun _ i ->
        snd (through_memo ~session ~jobs:1 ~seed:0 [ (Printf.sprintf "[%d]" i, sql) ]))
      "" [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "hits, misses, entries" [ 1; 2; 1 ]
    (List.map (stat line) [ "reply_hits"; "reply_misses"; "reply_entries" ])

(* A new catalog value clears the memo: a statement memoized under one
   catalog is answered afresh under another. *)
let test_memo_catalog_change () =
  let with_view = Uniqueness.Views.register_ddl catalog view_ddl in
  let items = List.init 3 (fun i -> (Printf.sprintf "[%d]" (i + 1), "SELECT DISTINCT V.SNO FROM V")) in
  let session = Reply.create () in
  List.iter
    (fun cat ->
      let got, _ = through_memo ~cat ~session ~jobs:1 ~seed:0 items in
      Alcotest.check pp_replies "the reply under this catalog" (reference ~cat items) got)
    [ catalog; with_view; catalog ];
  Alcotest.(check bool) "the view changes the reply" true
    (reference items <> reference ~cat:with_view items)

(* Counters are deterministic: the verdict and reply counters of a
   stream are the same at jobs 1 and 4. *)
let test_memo_counters_across_jobs () =
  let items = stream ~seed:5 ~fresh:false 400 in
  let counters jobs =
    let _, line = through_memo ~jobs ~seed:5 items in
    List.map (stat line)
      [ "verdict_hits"; "verdict_misses"; "verdict_evictions"; "entries";
        "reply_hits"; "reply_misses"; "reply_entries" ]
  in
  Alcotest.(check (list int)) "jobs 1 = jobs 4" (counters 1) (counters 4)

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "pipelined framed replies" `Quick
            test_pipelined_replies;
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_byte_identical_across_jobs;
          Alcotest.test_case "oversized literal, then a good request" `Quick
            test_oversized_literal_then_good_request;
          Alcotest.test_case "overloaded + stats + shutdown" `Quick
            test_overloaded_rejection_and_stats;
          Alcotest.test_case "16 MiB line refused in linear time" `Quick
            test_long_line_refused;
          Alcotest.test_case "deep nesting is a parse error" `Quick
            test_deep_nesting_is_a_parse_error;
          Alcotest.test_case "two connections, shared batches" `Quick
            test_two_connections ] );
      ( "reply memo",
        [ Alcotest.test_case "invisible at jobs 1 and 4" `Quick
            test_memo_invisible;
          Alcotest.test_case "admitted on the second sighting" `Quick
            test_memo_second_sighting;
          Alcotest.test_case "a new catalog gets no old reply" `Quick
            test_memo_catalog_change;
          Alcotest.test_case "counters equal at jobs 1 and 4" `Quick
            test_memo_counters_across_jobs ] ) ]
