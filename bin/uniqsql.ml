(* uniqsql — command-line front end for the uniqueness analysis and the
   rewrite suite.

     uniqsql analyze  "SELECT DISTINCT ..."   # run Algorithm 1 with trace
     uniqsql rewrite  "SELECT ..."            # apply the full rewrite suite
     uniqsql explain  "SELECT ..."            # full decision trace (--json, --run)
     uniqsql check    "SELECT ..."            # exact bounded-model check
     uniqsql run      "SELECT ..."            # execute on a generated instance
     uniqsql fuzz --seed 7 --count 5000       # differential soundness fuzzing
     uniqsql batch FILE [FILE ...]            # many queries, one shared cache
     uniqsql serve --socket /run/u.sock       # concurrent server (and/or --stdin)
     uniqsql loadgen --socket /run/u.sock     # seeded load generator for serve

   The schema defaults to the paper's supplier database (Figure 1); pass
   --ddl FILE (semicolon-separated CREATE TABLE statements) to use your
   own. Host variables are bound with --set NAME=VALUE. batch, serve and
   fuzz accept --jobs N to fan analyses out over N domains (lib/parallel)
   with byte-identical output. serve adds framing ("." block terminators
   on socket connections), bounded admission (--max-inflight, fast
   "overloaded" replies), per-class latency histograms via the stats
   command, and graceful drain on shutdown/SIGTERM — operator guide in
   doc/SERVING.md. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let add_statement cat stmt =
  match Sql.Parser.parse_statement stmt with
  | Sql.Ast.Create ct -> Catalog.add cat (Catalog.table_def_of_create ct)
  | Sql.Ast.Create_view cv ->
    Uniqueness.Views.register cat ~name:cv.Sql.Ast.cv_name cv.Sql.Ast.cv_query
  | Sql.Ast.Query _ -> failwith "DDL expected (CREATE TABLE / CREATE VIEW)"

let catalog_of_ddl ddl views =
  let base =
    match ddl with
    | None -> Workload.Paper_schema.catalog ()
    | Some path ->
      let text = read_file path in
      let statements =
        String.split_on_char ';' text
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      List.fold_left add_statement Catalog.empty statements
  in
  List.fold_left add_statement base views

let parse_binding s =
  match String.index_opt s '=' with
  | None -> failwith ("--set expects NAME=VALUE, got " ^ s)
  | Some i ->
    let name = String.uppercase_ascii (String.sub s 0 i) in
    let v = String.sub s (i + 1) (String.length s - i - 1) in
    (name, Sqlval.Value.of_sql_atom v)

(* common args *)
let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.")

let ddl_arg =
  Arg.(value & opt (some file) None
       & info [ "ddl" ] ~docv:"FILE" ~doc:"DDL file (CREATE TABLE statements).")

let set_arg =
  Arg.(value & opt_all string []
       & info [ "set" ] ~docv:"NAME=VALUE" ~doc:"Bind a host variable.")

let view_arg =
  Arg.(value & opt_all string []
       & info [ "view" ] ~docv:"DDL"
           ~doc:"Register a view (CREATE VIEW name AS SELECT ...); repeatable.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the analysis pipeline. 1 (the default) \
                 is the sequential path — no domain is spawned. Output is \
                 byte-identical at any value \
                 (cache counters excepted, which depend on scheduling).")

let check_jobs jobs = if jobs < 1 then failwith "--jobs must be >= 1"

let strict_arg =
  Arg.(value & flag
       & info [ "paper-strict" ]
           ~doc:"Reproduce the printed Algorithm 1 exactly (line 10 returns \
                 NO when no equality conditions remain).")

let fd_arg =
  Arg.(value & flag
       & info [ "fd" ] ~doc:"Use the FD-closure analyzer instead of Algorithm 1.")

let wrap f =
  try f (); 0 with
  | Sql.Parser.Parse_error msg -> Printf.eprintf "parse error: %s\n" msg; 1
  | Sql.Lexer.Lex_error (msg, off) ->
    Printf.eprintf "lex error at byte %d: %s\n" off msg; 1
  | Failure msg -> Printf.eprintf "error: %s\n" msg; 1
  | Difftest.Sexp.Parse_error msg ->
    Printf.eprintf "corpus parse error: %s\n" msg; 1
  | Fd.Derive.Unknown_table t -> Printf.eprintf "unknown table: %s\n" t; 1
  | Fd.Derive.Unknown_column a ->
    Printf.eprintf "unknown column: %s\n" (Schema.Attr.to_string a); 1
  | Uniqueness.Views.Unsupported_view msg ->
    Printf.eprintf "unsupported view: %s\n" msg; 1

(* ---- analyze ---- *)

let analyze_cmd =
  let run sql ddl views strict fd =
    wrap (fun () ->
        let cat = catalog_of_ddl ddl views in
        let spec = Sql.Parser.parse_query_spec sql in
        if fd then begin
          let r = Uniqueness.Fd_analysis.analyze cat spec in
          Format.printf "analyzer: FD closure@.unique: %b@." r.Uniqueness.Fd_analysis.unique;
          Format.printf "closure: %a@." Schema.Attr.pp_set r.Uniqueness.Fd_analysis.closure;
          List.iter
            (fun k -> Format.printf "derived key: %a@." Schema.Attr.pp_set k)
            r.Uniqueness.Fd_analysis.derived_keys
        end
        else
          Format.printf "%a@."
            Uniqueness.Algorithm1.pp_report
            (Uniqueness.Algorithm1.analyze ~paper_strict:strict cat spec))
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Decide whether DISTINCT is redundant (Algorithm 1).")
    Term.(const run $ sql_arg $ ddl_arg $ view_arg $ strict_arg $ fd_arg)

(* ---- rewrite ---- *)

let rewrite_cmd =
  let run sql ddl views fd =
    wrap (fun () ->
        let cat = catalog_of_ddl ddl views in
        let q = Sql.Parser.parse_query sql in
        let analyzer =
          if fd then Uniqueness.Rewrite.Fd_closure else Uniqueness.Rewrite.Algorithm1
        in
        let q', outcomes = Uniqueness.Rewrite.apply_all ~analyzer cat q in
        if outcomes = [] then Format.printf "no rewrite applies@."
        else
          List.iter
            (fun o -> Format.printf "%a@.@." Uniqueness.Rewrite.pp_outcome o)
            outcomes;
        Format.printf "final: %s@." (Sql.Pretty.query q'))
  in
  Cmd.v (Cmd.info "rewrite" ~doc:"Apply the uniqueness-based rewrite suite.")
    Term.(const run $ sql_arg $ ddl_arg $ view_arg $ fd_arg)

(* ---- explain ---- *)

let explain_cmd =
  let rows_arg =
    Arg.(value & opt int 1000
         & info [ "rows" ] ~docv:"N" ~doc:"Assumed cardinality per table.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the report as JSON (machine-readable; same \
                   information as the tree).")
  in
  let run_arg =
    Arg.(value & flag
         & info [ "run" ]
             ~doc:"Also execute the planned query once on a generated \
                   supplier database and fold the engine counters into the \
                   report (built-in paper schema only).")
  in
  let size_arg =
    Arg.(value & opt int 300
         & info [ "suppliers" ] ~docv:"N"
             ~doc:"Suppliers in the generated instance used by --run.")
  in
  let cache_arg =
    Arg.(value & flag
         & info [ "cache" ]
             ~doc:"Route every uniqueness verdict through a fresh analysis \
                   cache (hits show as cache.hit nodes, a cache section \
                   reports the counters). Verdicts are unchanged.")
  in
  let run sql ddl views rows json exec suppliers sets use_cache =
    wrap (fun () ->
        let q = Sql.Parser.parse_query sql in
        let stats _ = rows in
        let hosts = List.map parse_binding sets in
        let cat, database =
          if not exec then (catalog_of_ddl ddl views, None)
          else begin
            match ddl with
            | Some _ -> failwith "--run only supports the built-in paper schema"
            | None ->
              let db =
                Workload.Generator.supplier_db ~suppliers
                  ~parts_per_supplier:5 ()
              in
              let cat =
                List.fold_left add_statement (Engine.Database.catalog db) views
              in
              (cat, Some db)
          end
        in
        let cache =
          if use_cache then Some (Analysis_cache.create ()) else None
        in
        let report =
          Cache.Runtime.with_enabled use_cache (fun () ->
              Explain.explain ~stats ?database ~hosts ?cache cat q)
        in
        if json then
          print_endline (Trace.Json.to_string_pretty (Explain.to_json report))
        else Format.printf "%a@." Explain.pp report)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Full decision trace: Algorithm 1, derived FDs, every rewrite \
             attempt, the costed strategy space, and (with --run) the \
             engine's execution counters.")
    Term.(const run $ sql_arg $ ddl_arg $ view_arg $ rows_arg $ json_arg
          $ run_arg $ size_arg $ set_arg $ cache_arg)

(* ---- check (exact) ---- *)

let check_cmd =
  let budget_arg =
    Arg.(value & opt int 2_000_000
         & info [ "budget" ] ~docv:"N" ~doc:"Search budget (combinations).")
  in
  let run sql ddl views budget =
    wrap (fun () ->
        let cat = catalog_of_ddl ddl views in
        let spec = Sql.Parser.parse_query_spec sql in
        (match Uniqueness.Exact.search_space cat spec with
         | n -> Format.printf "raw search space (upper bound): %d@." n
         | exception _ -> ());
        match Uniqueness.Exact.check ~max_cells:budget cat spec with
        | r -> Format.printf "%a@." Uniqueness.Exact.pp_result r
        | exception Uniqueness.Exact.Too_large n ->
          Format.printf "search space too large (%d combinations tried)@." n)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exact bounded-model test of the Theorem 1 uniqueness condition.")
    Term.(const run $ sql_arg $ ddl_arg $ view_arg $ budget_arg)

(* ---- run ---- *)

let run_cmd =
  let size_arg =
    Arg.(value & opt int 50
         & info [ "suppliers" ] ~docv:"N"
             ~doc:"Suppliers in the generated instance (paper schema only).")
  in
  let limit_arg =
    Arg.(value & opt int 20
         & info [ "limit" ] ~docv:"N" ~doc:"Rows to display.")
  in
  let logic_arg =
    Arg.(value & opt string "3vl"
         & info [ "logic" ] ~docv:"MODE"
             ~doc:"Predicate logic: 3vl (SQL's three-valued Kleene logic, \
                   the default) or 2vl (Libkin's two-valued collapse: atoms \
                   over NULL are false, connectives are classical). A 2vl \
                   query is translated into the three-valued query that \
                   selects the same rows, then planned and run under 3vl. \
                   The two agree on null-free data.")
  in
  let run sql ddl views sets suppliers limit logic =
    wrap (fun () ->
        let logic =
          match Sqlval.Logic_mode.of_string logic with
          | Some m -> m
          | None -> failwith ("--logic expects 3vl or 2vl, got " ^ logic)
        in
        (match ddl with
         | Some _ -> failwith "run only supports the built-in paper schema"
         | None -> ());
        let db = Workload.Generator.supplier_db ~suppliers ~parts_per_supplier:5 () in
        let cat =
          List.fold_left add_statement (Engine.Database.catalog db) views
        in
        let hosts = List.map parse_binding sets in
        let q = Sql.Parser.parse_query sql in
        let q =
          match logic with
          | Sqlval.Logic_mode.L2 -> Optimizer.Physical.two_valued cat q
          | Sqlval.Logic_mode.L3 -> q
        in
        let { Optimizer.Physical.strategy; query = q; config = cfg; distinct;
              join; order } =
          Optimizer.Physical.plan ~database:db cat q
        in
        Format.printf "strategy: %s — %s@." strategy.Optimizer.Planner.name
          (Sql.Pretty.query q);
        Format.printf "distinct strategy: %s — %s@."
          distinct.Optimizer.Distinct_plan.name distinct.reason;
        Format.printf "join strategy: %s — %s@." join.Optimizer.Join_plan.name
          join.reason;
        Format.printf "order strategy: %s — %s@."
          order.Optimizer.Order_plan.name order.reason;
        let r = Engine.Exec.run_query ~config:cfg db ~hosts q in
        let truncated =
          { r with Engine.Relation.rows =
              List.filteri (fun i _ -> i < limit) r.Engine.Relation.rows }
        in
        print_endline (Engine.Relation.to_text truncated);
        Format.printf "(%d rows total)@." (Engine.Relation.cardinality r);
        let st = cfg.Engine.Exec.stats in
        if st.Engine.Stats.dedup_strategy <> "" then
          Format.printf
            "dedup: %s (rows in=%d out=%d, state peak=%d, elisions=%d)@."
            st.Engine.Stats.dedup_strategy st.Engine.Stats.dedup_rows_in
            st.Engine.Stats.dedup_rows_out st.Engine.Stats.dedup_state_peak
            st.Engine.Stats.distinct_elisions;
        if st.Engine.Stats.join_strategy <> "" then
          Format.printf
            "join: %s (build rows=%d, probe rows=%d, unique builds=%d, \
             early exits=%d)@."
            st.Engine.Stats.join_strategy st.Engine.Stats.join_build_rows
            st.Engine.Stats.join_probe_rows st.Engine.Stats.unique_builds
            st.Engine.Stats.probe_early_exits;
        if st.Engine.Stats.sorts > 0 || st.Engine.Stats.sort_elisions > 0
           || st.Engine.Stats.merge_joins > 0 then
          Format.printf
            "order: sorts=%d (rows=%d), elisions=%d, merge joins=%d@."
            st.Engine.Stats.sorts st.Engine.Stats.sorted_rows
            st.Engine.Stats.sort_elisions st.Engine.Stats.merge_joins)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a query on a generated supplier database: the \
             cheapest of the query and its uniqueness rewrites, under the \
             DISTINCT, join and ORDER BY strategies planned for it.")
    Term.(const run $ sql_arg $ ddl_arg $ view_arg $ set_arg $ size_arg
          $ limit_arg $ logic_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int Difftest.Runner.default.Difftest.Runner.seed
         & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (same seed, same report).")
  in
  let count_arg =
    Arg.(value & opt int Difftest.Runner.default.Difftest.Runner.count
         & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of random cases.")
  in
  let instances_arg =
    Arg.(value & opt int Difftest.Runner.default.Difftest.Runner.instances
         & info [ "instances" ] ~docv:"N" ~doc:"Database instances per case.")
  in
  let rows_arg =
    Arg.(value & opt int Difftest.Runner.default.Difftest.Runner.rows
         & info [ "rows" ] ~docv:"N" ~doc:"Max rows per table per instance.")
  in
  let cells_arg =
    Arg.(value & opt int Difftest.Runner.default.Difftest.Runner.exact_cells
         & info [ "exact-cells" ] ~docv:"N"
             ~doc:"Search budget of the exact checker (agreement oracle).")
  in
  let no_shrink_arg =
    Arg.(value & flag
         & info [ "no-shrink" ] ~doc:"Report failing cases without minimizing them.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"DIR"
             ~doc:"Write each (minimized) failing case to DIR/caseN-ORACLE.sexp \
                   for the regression corpus.")
  in
  let replay_arg =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Skip the campaign: re-judge a stored counterexample \
                   (corpus .sexp file) with all three oracles.")
  in
  let cache_arg =
    Arg.(value & flag
         & info [ "cache" ]
             ~doc:"Run the whole campaign through one shared analysis cache \
                   (closure memo on). The report must be bit-identical to a \
                   cache-free campaign with the same seed.")
  in
  let nested_or_arg =
    Arg.(value & opt float Difftest.Runner.default.Difftest.Runner.nested_or
         & info [ "nested-or" ] ~docv:"P"
             ~doc:"Probability (0.0-1.0) that a case's query is the \
                   budget-blowing nested OR-of-ANDs shape, exercising the \
                   analyzers' sound MAYBE path. The default 0.0 leaves the \
                   seeded RNG stream byte-identical to earlier releases.")
  in
  let oracle_arg =
    Arg.(value & opt_all string []
         & info [ "oracle" ] ~docv:"NAME"
             ~doc:"Run only the named oracle group (repeatable). Groups: \
                   uniqueness, rewrite, agreement, symbolic, logic, cache, \
                   distinct, join, order, plan. Default: all of them.")
  in
  let run seed count instances rows cells no_shrink save replay use_cache
      nested_or oracles jobs =
    wrap (fun () ->
        check_jobs jobs;
        match replay with
        | Some path ->
          let case = Difftest.Case.load path in
          let findings = Difftest.Runner.replay ~only:oracles case in
          List.iter
            (fun f -> Format.printf "%a@." Difftest.Oracle.pp_finding f)
            findings;
          if Difftest.Oracle.failures findings <> [] then exit 1
        | None ->
          let config =
            { Difftest.Runner.seed; count; instances; rows;
              exact_cells = cells; shrink = not no_shrink;
              use_cache; nested_or; oracles }
          in
          let report =
            Parallel.Pool.with_pool ~jobs (fun pool ->
                Difftest.Runner.run ~pool config)
          in
          Format.printf "%a" Difftest.Runner.pp_report report;
          (match save with
           | None -> ()
           | Some dir ->
             List.iter
               (fun (d : Difftest.Runner.discrepancy) ->
                 let oracle_slug =
                   String.map
                     (fun c -> if c = '/' then '-' else c)
                     d.Difftest.Runner.oracle
                 in
                 let path =
                   Filename.concat dir
                     (Printf.sprintf "case%d-%s.sexp"
                        d.Difftest.Runner.case_index oracle_slug)
                 in
                 Difftest.Case.save path d.Difftest.Runner.case;
                 Format.printf "saved %s@." path)
               report.Difftest.Runner.discrepancies);
          if report.Difftest.Runner.discrepancies <> []
             || report.Difftest.Runner.skipped_cases > 0
          then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential soundness fuzzing: random schemas, queries and \
             instances judged by the uniqueness, rewrite, agreement, \
             symbolic, logic, cache, distinct, join, order and plan oracles \
             (restrict with --oracle). \
             Generation is sequential on the seeded RNG and judging fans \
             out over --jobs domains, so the report is byte-identical at \
             any job count.")
    Term.(const run $ seed_arg $ count_arg $ instances_arg $ rows_arg
          $ cells_arg $ no_shrink_arg $ save_arg $ replay_arg $ cache_arg
          $ nested_or_arg $ oracle_arg $ jobs_arg)

(* ---- batch / serve ---- *)

let capacity_arg =
  Arg.(value & opt int 1024
       & info [ "capacity" ] ~docv:"N"
           ~doc:"Capacity of the verdict cache and of the reply memo \
                 (each LRU-bounded).")

let pp_cache_stats session =
  print_endline (Serve.Reply.cache_stats_line session);
  flush stdout

let split_statements text =
  String.split_on_char ';' text
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let batch_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"FILE"
             ~doc:"Files of semicolon-separated queries. Repeat a file to \
                   measure warm-cache behaviour: the second pass is served \
                   from the cache filled by the first, and a third from \
                   the reply memo.")
  in
  let run ddl views capacity jobs files =
    wrap (fun () ->
        check_jobs jobs;
        let cat = catalog_of_ddl ddl views in
        let session = Serve.Reply.create ~capacity () in
        Cache.Runtime.with_enabled true (fun () ->
            (* One batch per file pass: within a pass the shared caches
               are frozen and worker domains fill thread-local deltas
               (zero lock traffic); the merge at the pass boundary is
               what lets the next pass hit, and a statement's second
               pass admits its reply to the memo, which answers the
               third. Epoch accounting makes the trailing cache: counter
               line — not just the replies — byte-identical at any job
               count. *)
            Parallel.Pool.with_pool ~jobs (fun pool ->
                List.iteri
                  (fun pass path ->
                    let items =
                      List.mapi
                        (fun i sql ->
                          ( Printf.sprintf "[%d:%s:%d]" (pass + 1)
                              (Filename.basename path) (i + 1),
                            sql ))
                        (split_statements (read_file path))
                    in
                    Serve.Reply.run_batch pool session cat items
                    |> List.iter (fun (text, _) -> print_string text))
                  files));
        pp_cache_stats session)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Analyze and rewrite many queries through one shared analysis \
             cache (verdict memo + closure memo); prints the cache counters \
             at the end. With --jobs N the queries are analyzed on N domains \
             sharing the cache; the replies still print in order.")
    Term.(const run $ ddl_arg $ view_arg $ capacity_arg $ jobs_arg $ files_arg)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at PATH (created at \
                 startup, unlinked on shutdown). Socket replies are \
                 framed: each reply block ends with a line holding a \
                 single dot. Without this option the server reads stdin \
                 only, as before.")

let stdin_flag =
  Arg.(value & flag
       & info [ "stdin" ]
           ~doc:"With --socket, also serve stdin as an unframed \
                 connection (the default is socket-only so the server \
                 can run in the background).")

let max_inflight_arg =
  Arg.(value & opt int 1024
       & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission bound: at most N requests queue for analysis; \
                 beyond it the server replies '<label> overloaded' \
                 immediately instead of buffering without bound.")

let max_batch_arg =
  Arg.(value & opt int 64
       & info [ "max-batch" ] ~docv:"N"
           ~doc:"Requests dispatched per cache epoch (one pool batch).")

let serve_cmd =
  let run ddl views capacity jobs socket stdin_too max_inflight max_batch =
    wrap (fun () ->
        check_jobs jobs;
        let cat = catalog_of_ddl ddl views in
        let session = Serve.Reply.create ~capacity () in
        let stop = Atomic.make false in
        let on_signal _ = Atomic.set stop true in
        List.iter
          (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal))
          [ Sys.sigterm; Sys.sigint ];
        let cfg =
          { (Serve.Server.default_config ()) with
            Serve.Server.socket_path = socket;
            use_stdin = (socket = None || stdin_too);
            jobs;
            max_inflight;
            max_batch;
            stop }
        in
        Cache.Runtime.with_enabled true (fun () ->
            Serve.Server.run cfg cat session);
        pp_cache_stats session)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve analysis requests over stdin and/or a Unix socket \
             (--socket), one query per line, through one long-lived \
             shared analysis cache. Blank lines and -- comments are \
             skipped; 'stats' (or .stats) reports served/rejected \
             counts, cache counters, and \
             per-class p50/p95/p99 latency; 'shutdown' (or SIGTERM, or \
             stdin EOF when no socket is configured) drains in-flight \
             requests and exits, printing the cache counters once more. \
             Admitted requests dispatch in arrival order in batches of \
             --max-batch per cache epoch over --jobs domains; replies \
             leave in request order per connection and are byte-identical \
             at any job count. See doc/SERVING.md.")
    Term.(const run $ ddl_arg $ view_arg $ capacity_arg $ jobs_arg
          $ socket_arg $ stdin_flag $ max_inflight_arg $ max_batch_arg)

(* ---- loadgen ---- *)

let loadgen_cmd =
  let socket_req_arg =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Server socket to connect to.")
  in
  let count_arg =
    Arg.(value & opt int 1000
         & info [ "count"; "n" ] ~docv:"N" ~doc:"Requests to send.")
  in
  let seed_arg =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"N"
             ~doc:"Workload-shuffle seed (same seed, same request stream).")
  in
  let window_arg =
    Arg.(value & opt int 64
         & info [ "window" ] ~docv:"N"
             ~doc:"Max requests in flight on the connection (pipelining \
                   depth). Keep below the server's --max-inflight to \
                   avoid overload rejections.")
  in
  let files_arg =
    Arg.(value & opt_all file [ "examples/workload.sql" ]
         & info [ "file" ] ~docv:"FILE"
             ~doc:"Query files (semicolon-separated statements) forming \
                   the traffic mix; repeatable.")
  in
  let quiet_arg =
    Arg.(value & flag
         & info [ "quiet" ]
             ~doc:"Suppress reply echo (stdout); keep the summary (stderr).")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Send a shutdown command after the load, stopping the \
                   server (graceful drain).")
  in
  let run socket count seed window files quiet do_shutdown =
    wrap (fun () ->
        if count < 1 then failwith "--count must be >= 1";
        if window < 1 then failwith "--window must be >= 1";
        (* The wire protocol is one request per line, so multi-line
           statements are flattened: -- comment lines dropped (they would
           comment out the rest of the flattened line), newlines joined
           with spaces. *)
        let flatten stmt =
          String.split_on_char '\n' stmt
          |> List.map String.trim
          |> List.filter (fun l ->
                 l <> ""
                 && not (String.length l >= 2 && String.sub l 0 2 = "--"))
          |> String.concat " "
        in
        let statements =
          List.concat_map (fun f -> split_statements (read_file f)) files
          |> List.map flatten
          |> List.filter (fun s -> s <> "")
        in
        if statements = [] then failwith "no statements in the given files";
        let pool = Array.of_list statements in
        let rng = Random.State.make [| seed |] in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        let ic = Unix.in_channel_of_descr fd in
        let hist = Engine.Histogram.create () in
        let sent_at : float Queue.t = Queue.create () in
        let send_one () =
          let sql = pool.(Random.State.int rng (Array.length pool)) in
          let line = sql ^ "\n" in
          Queue.add (Unix.gettimeofday ()) sent_at;
          let n = String.length line in
          let rec go off =
            if off < n then go (off + Unix.write_substring fd line off (n - off))
          in
          go 0
        in
        (* One framed reply block: payload lines up to the "." terminator. *)
        let read_block () =
          let buf = Buffer.create 128 in
          let rec go () =
            match In_channel.input_line ic with
            | None -> failwith "server closed the connection mid-reply"
            | Some "." -> Buffer.contents buf
            | Some l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n';
              go ()
          in
          go ()
        in
        let receive_one () =
          let block = read_block () in
          Engine.Histogram.record_span hist ~start:(Queue.take sent_at)
            ~stop:(Unix.gettimeofday ());
          if not quiet then print_string block
        in
        let t0 = Unix.gettimeofday () in
        let sent = ref 0 and received = ref 0 in
        while !received < count do
          while !sent < count && !sent - !received < window do
            send_one ();
            incr sent
          done;
          receive_one ();
          incr received
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        if do_shutdown then begin
          let msg = "shutdown\n" in
          ignore (Unix.write_substring fd msg 0 (String.length msg));
          (* the draining acknowledgement *)
          ignore (read_block ())
        end;
        Unix.close fd;
        let s = Engine.Histogram.summary hist in
        Format.eprintf
          "loadgen: %d replies in %.3fs (%.0f q/s) latency %a@." count elapsed
          (float_of_int count /. elapsed)
          Engine.Histogram.pp_summary s;
        flush stdout)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running 'uniqsql serve --socket' server with a \
             seeded stream of pipelined requests drawn from query files, \
             echo the replies in order (diffable across server --jobs \
             values), and report client-side throughput and p50/p95/p99 \
             latency on stderr.")
    Term.(const run $ socket_req_arg $ count_arg $ seed_arg $ window_arg
          $ files_arg $ quiet_arg $ shutdown_arg)

let () =
  let doc = "uniqueness-based semantic query optimization (Paulley & Larson, ICDE 1994)" in
  let info = Cmd.info "uniqsql" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ analyze_cmd; rewrite_cmd; explain_cmd; check_cmd; run_cmd;
            fuzz_cmd; batch_cmd; serve_cmd; loadgen_cmd ]))
