(* One request, one reply line — the analysis payload shared by the
   batch command, the stdin front end, and the socket server. Replies are
   a pure function of (catalog, SQL text) — the cache is semantically
   invisible — which is what makes serve output byte-identical at any
   [--jobs]. *)

type request_class = Analyze | Rewrite | Error

let class_name = function
  | Analyze -> "analyze"
  | Rewrite -> "rewrite"
  | Error -> "error"

let all_classes = [ Analyze; Rewrite; Error ]

(* One line of output per query: the two analyzer verdicts (where they
   apply) and the rewritten form, all served through the shared cache.
   A bad query reports its error and the session continues. Returns the
   reply as a string so it can be computed on any domain and written in
   input order by the submitting one, plus the request's class for
   latency accounting ([Analyze]: a plain SELECT block both analyzers
   judge; [Rewrite]: everything else that parses; [Error]: it didn't). *)
let process cache cat ~label sql =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let cls =
    match Sql.Parser.parse_query sql with
    | exception Sql.Parser.Parse_error msg ->
      Format.fprintf ppf "%s parse error: %s@." label msg;
      Error
    | exception Sql.Lexer.Lex_error (msg, off) ->
      Format.fprintf ppf "%s lex error at byte %d: %s@." label off msg;
      Error
    | exception Stack_overflow ->
      Format.fprintf ppf "%s parse error: input nested too deeply@." label;
      Error
    | exception e ->
      Format.fprintf ppf "%s parse error: %s@." label (Printexc.to_string e);
      Error
    | q -> (
      try
        let cls =
          match q with
          | Sql.Ast.Spec s when s.Sql.Ast.group_by = [] ->
            let alg1 =
              Uniqueness.Algorithm1.distinct_is_redundant ~cache cat s
            in
            let fd = Uniqueness.Fd_analysis.distinct_is_redundant ~cache cat s in
            Format.fprintf ppf "%s unique(alg1)=%b unique(fd)=%b" label alg1 fd;
            Analyze
          | _ ->
            Format.fprintf ppf "%s unique=n/a" label;
            Rewrite
        in
        let final, outcomes = Uniqueness.Rewrite.apply_all ~cache cat q in
        Format.fprintf ppf " rewrites=%d" (List.length outcomes);
        if outcomes <> [] then
          Format.fprintf ppf " final=%s" (Sql.Pretty.query final);
        Format.fprintf ppf "@.";
        cls
      with e ->
        Format.fprintf ppf "%s error: %s@." label (Printexc.to_string e);
        Error)
  in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, cls)

(* One epoch per batch: the caches freeze, the requests fan out over the
   pool with zero lock traffic, and the per-domain deltas merge at the
   barrier with deterministic accounting. Replies come back in request
   order. *)
let run_batch pool cache cat items =
  Analysis_cache.epoch cache (fun () ->
      Parallel.Pool.map pool
        (fun (label, sql) -> process cache cat ~label sql)
        items)

let cache_stats_line cache =
  let c = Analysis_cache.counters cache in
  let m = Cache.Runtime.counters () in
  Printf.sprintf
    "cache: verdict_hits=%d verdict_misses=%d verdict_evictions=%d \
     entries=%d closure_memo_hits=%d closure_memo_misses=%d"
    c.Cache.Lru.c_hits c.Cache.Lru.c_misses c.Cache.Lru.c_evictions
    (Analysis_cache.length cache) m.Cache.Lru.c_hits m.Cache.Lru.c_misses
