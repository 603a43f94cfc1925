(* One request, one reply line — the analysis payload shared by the
   batch command, the stdin front end, and the socket server. Replies are
   a pure function of (catalog, SQL text) — the caches are semantically
   invisible — which is what makes serve output byte-identical at any
   [--jobs], and what lets a session memoize whole replies. *)

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

(* A serving session: the verdict cache plus the reply memo in front of
   it. The memo maps a statement's text to its label-free reply and
   class; a hit never reaches the parser. It is bounded by the verdict
   cache's capacity and admits a reply only on its statement's second
   sighting: [seen] is a direct-mapped array of statement hashes, one
   slot per unit of capacity — the doorkeeper of TinyLFU (Einziger,
   Friedman and Manes, ACM TOS 2017) — so a statement seen once costs
   one int and a stream of all-new statements stores no replies. Only
   the submitting domain touches the memo, so it needs no epoch slot.
   Replies depend on the catalog, so a new catalog value clears it. *)
type t = {
  cache : Analysis_cache.t;
  replies : (string, string * request_class) Cache.Lru.t;
  seen : int array;  (* statement hashes; -1 marks an empty slot *)
  mutable catalog : Catalog.t option;  (* what [replies] were computed under *)
}

let create ?(capacity = 1024) () =
  {
    cache = Analysis_cache.create ~capacity ();
    replies = Cache.Lru.create ~capacity;
    seen = Array.make capacity (-1);
    catalog = None;
  }

let use_catalog t cat =
  match t.catalog with
  | Some c when c == cat -> ()
  | _ ->
    Cache.Lru.clear t.replies;
    Array.fill t.seen 0 (Array.length t.seen) (-1);
    t.catalog <- Some cat

(* Every reply begins with its label, so the memo keeps the rest. *)
let admit t sql ~label (text, cls) =
  let h = Hashtbl.hash sql in
  let slot = h mod Array.length t.seen in
  if t.seen.(slot) = h then
    let n = String.length label in
    Cache.Lru.add t.replies sql (String.sub text n (String.length text - n), cls)
  else t.seen.(slot) <- h

(* Memo hits are answered on the submitting domain. The misses go out in
   one epoch: the caches freeze, the requests fan out over the pool with
   zero lock traffic, and the per-domain deltas merge at the barrier with
   deterministic accounting. After the barrier the computed replies are
   admitted in request order, so the memo's contents and counters are
   the same at any [--jobs]. *)
let run_batch pool t cat items =
  use_catalog t cat;
  let looked =
    List.map (fun (label, sql) -> (label, sql, Cache.Lru.find t.replies sql)) items
  in
  let misses =
    List.filter_map
      (fun (label, sql, hit) -> if Option.is_none hit then Some (label, sql) else None)
      looked
  in
  let computed =
    if misses = [] then []
    else
      Analysis_cache.epoch t.cache (fun () ->
          Parallel.Pool.map pool
            (fun (label, sql) -> process t.cache cat ~label sql)
            misses)
  in
  let rec answer acc looked computed =
    match (looked, computed) with
    | [], _ -> List.rev acc
    | (label, _, Some (body, cls)) :: rest, _ ->
      answer ((label ^ body, cls) :: acc) rest computed
    | (label, sql, None) :: rest, reply :: computed ->
      admit t sql ~label reply;
      answer (reply :: acc) rest computed
    | (_, _, None) :: _, [] -> assert false
  in
  answer [] looked computed

let cache_stats_line t =
  let c = Analysis_cache.counters t.cache in
  let m = Cache.Runtime.counters () in
  let r = Cache.Lru.counters t.replies in
  Printf.sprintf
    "cache: verdict_hits=%d verdict_misses=%d verdict_evictions=%d \
     entries=%d closure_memo_hits=%d closure_memo_misses=%d \
     reply_hits=%d reply_misses=%d reply_entries=%d"
    c.Cache.Lru.c_hits c.Cache.Lru.c_misses c.Cache.Lru.c_evictions
    (Analysis_cache.length t.cache) m.Cache.Lru.c_hits m.Cache.Lru.c_misses
    r.Cache.Lru.c_hits r.Cache.Lru.c_misses r.Cache.Lru.c_length
