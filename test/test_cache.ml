(* Cache-layer tests: bitset canonicality, LRU eviction order and
   counters, the Fdset dedup regression, fingerprint stability
   (alpha-renaming, collision freedom, catalog invalidation), the closure
   memo's on/off equivalence, and end-to-end cached-verdict consistency. *)

module Attr = Schema.Attr
module B = Cache.Bitset
module L = Cache.Lru
module A1 = Uniqueness.Algorithm1
module FdA = Uniqueness.Fd_analysis

let catalog = Workload.Paper_schema.catalog ()
let parse_spec = Sql.Parser.parse_query_spec

let example1 =
  "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
   S.SNO = P.SNO AND P.COLOR = 'RED'"

(* ---- bitsets ---- *)

let test_bitset_ops () =
  let s = B.of_list [ 3; 70; 3; 1 ] in
  Alcotest.(check (list int)) "elements sorted, deduped" [ 1; 3; 70 ]
    (B.elements s);
  Alcotest.(check int) "cardinal" 3 (B.cardinal s);
  Alcotest.(check bool) "mem" true (B.mem 70 s);
  Alcotest.(check bool) "not mem" false (B.mem 2 s);
  Alcotest.(check (list int)) "union"
    [ 1; 2; 3; 70 ]
    (B.elements (B.union s (B.of_list [ 2; 3 ])));
  Alcotest.(check (list int)) "inter" [ 3 ]
    (B.elements (B.inter s (B.of_list [ 2; 3 ])));
  Alcotest.(check (list int)) "diff" [ 1; 70 ]
    (B.elements (B.diff s (B.of_list [ 2; 3 ])));
  Alcotest.(check bool) "subset" true (B.subset (B.of_list [ 1; 3 ]) s);
  Alcotest.(check bool) "not subset" false (B.subset (B.of_list [ 1; 2 ]) s)

(* same set, different construction order: one canonical serialization
   (the closure-memo key depends on this) *)
let test_bitset_canonical () =
  let a = B.of_list [ 64; 0 ] and b = B.add 0 (B.singleton 64) in
  Alcotest.(check bool) "equal" true (B.equal a b);
  let ser s =
    let buf = Buffer.create 16 in
    B.add_to_buffer buf s;
    Buffer.contents buf
  in
  Alcotest.(check string) "canonical serialization" (ser a) (ser b);
  (* removing the high bits must shrink the serialization (no trailing
     zero words), so sets of different width never alias *)
  Alcotest.(check bool) "widths differ" true
    (ser (B.singleton 0) <> ser (B.of_list [ 0; 64 ]))

(* ---- LRU ---- *)

let test_lru_eviction_order () =
  let t = L.create ~capacity:3 in
  L.add t "a" 1;
  L.add t "b" 2;
  L.add t "c" 3;
  (* touch "a": now "b" is the least recently used *)
  Alcotest.(check (option int)) "find a" (Some 1) (L.find t "a");
  L.add t "d" 4;
  Alcotest.(check (list string)) "recency order" [ "d"; "a"; "c" ]
    (L.keys_by_recency t);
  Alcotest.(check (option int)) "b evicted" None (L.find t "b");
  Alcotest.(check int) "length" 3 (L.length t);
  let c = L.counters t in
  Alcotest.(check int) "evictions" 1 c.L.c_evictions;
  Alcotest.(check int) "hits" 1 c.L.c_hits;
  Alcotest.(check int) "misses" 1 c.L.c_misses

let test_lru_overwrite () =
  let t = L.create ~capacity:2 in
  L.add t "a" 1;
  L.add t "b" 2;
  L.add t "a" 10;
  Alcotest.(check int) "overwrite keeps length" 2 (L.length t);
  Alcotest.(check (option int)) "overwritten" (Some 10) (L.find t "a");
  L.add t "c" 3;
  Alcotest.(check (option int)) "b evicted, not a" None (L.find t "b");
  Alcotest.(check (option int)) "a survives" (Some 10) (L.find t "a")

(* ---- Fdset dedup regression ---- *)

(* union used to be [a @ b] and add never checked membership, so repeated
   derivations ballooned the dependency list the closure loop sweeps *)
let test_fdset_dedup () =
  let attr s = Attr.of_string s in
  let fd = Fd.Fdset.make_fd [ attr "R.A" ] [ attr "R.B" ] in
  let fd' = Fd.Fdset.make_fd [ attr "R.A" ] [ attr "R.C" ] in
  let t = Fd.Fdset.of_list [ fd; fd'; fd ] in
  Alcotest.(check int) "of_list dedups" 2 (List.length (Fd.Fdset.to_list t));
  Alcotest.(check int) "add dedups" 2
    (List.length (Fd.Fdset.to_list (Fd.Fdset.add t fd)));
  Alcotest.(check int) "union dedups" 2
    (List.length (Fd.Fdset.to_list (Fd.Fdset.union t t)));
  (* first-occurrence order is preserved (traced closures step in list
     order, so the pinned snapshots rely on it) *)
  Alcotest.(check bool) "order preserved" true
    (Fd.Fdset.to_list (Fd.Fdset.union t (Fd.Fdset.of_list [ fd' ])) = [ fd; fd' ])

(* ---- closure memo: on/off equivalence ---- *)

let test_memo_equivalence () =
  let attr s = Attr.of_string s in
  let fds =
    Fd.Fdset.of_list
      [ Fd.Fdset.make_fd [ attr "R.A" ] [ attr "R.B" ];
        Fd.Fdset.make_fd [ attr "R.B" ] [ attr "R.C" ];
        Fd.Fdset.make_fd [ attr "R.C"; attr "R.D" ] [ attr "R.E" ] ]
  in
  let seeds =
    [ [ "R.A" ]; [ "R.A"; "R.D" ]; [ "R.D" ]; [ "R.E" ]; [] ]
    |> List.map (fun l -> Attr.set_of_list (List.map attr l))
  in
  Cache.Runtime.clear ();
  List.iter
    (fun seed ->
      let off =
        Cache.Runtime.with_enabled false (fun () -> Fd.Fdset.closure fds seed)
      in
      let miss =
        Cache.Runtime.with_enabled true (fun () -> Fd.Fdset.closure fds seed)
      in
      let hit =
        Cache.Runtime.with_enabled true (fun () -> Fd.Fdset.closure fds seed)
      in
      Alcotest.(check bool) "off = miss" true (Attr.Set.equal off miss);
      Alcotest.(check bool) "miss = hit" true (Attr.Set.equal miss hit))
    seeds

(* a memo hit runs zero saturation sweeps — the property the
   ANALYSIS_CACHE benchmark's cold/warm comparison is built on *)
let test_memo_hit_skips_iterations () =
  let attr s = Attr.of_string s in
  let fds =
    Fd.Fdset.of_list [ Fd.Fdset.make_fd [ attr "R.A" ] [ attr "R.B" ] ]
  in
  let seed = Attr.set_of_list [ attr "R.A" ] in
  Cache.Runtime.clear ();
  Cache.Runtime.with_enabled true (fun () ->
      ignore (Fd.Fdset.closure fds seed);
      Cache.Counters.reset ();
      ignore (Fd.Fdset.closure fds seed);
      let c = Cache.Counters.snapshot () in
      Alcotest.(check int) "zero iterations on hit" 0
        c.Cache.Counters.iterations;
      Alcotest.(check int) "one memo hit" 1 c.Cache.Counters.memo_hits)

(* ---- fingerprints ---- *)

let key ?(tag = "alg1") cat sql =
  Analysis_cache.Fingerprint.query_key ~tag cat (parse_spec sql)

let test_fingerprint_alpha_renaming () =
  let renamed =
    "SELECT DISTINCT X.SNO, Y.PNO, Y.PNAME FROM SUPPLIER X, PARTS Y WHERE \
     X.SNO = Y.SNO AND Y.COLOR = 'RED'"
  in
  Alcotest.(check string) "alpha-renamed query shares the key"
    (key catalog example1) (key catalog renamed);
  (* nested scopes rename capture-free too *)
  let sub a b p =
    Printf.sprintf
      "SELECT %s.SNO FROM SUPPLIER %s WHERE EXISTS (SELECT %s.PNO FROM \
       PARTS %s WHERE %s.SNO = %s.SNO AND %s.COLOR = 'RED')"
      a a b b b a p
  in
  Alcotest.(check string) "nested scopes rename capture-free"
    (key catalog (sub "S" "P" "P")) (key catalog (sub "U" "V" "V"))

let test_fingerprint_discriminates () =
  let queries =
    [ example1;
      (* same tables, different projection *)
      "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = \
       P.SNO AND P.COLOR = 'RED'";
      (* same shape, different constant *)
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
       WHERE S.SNO = P.SNO AND P.COLOR = 'BLUE'";
      (* ALL vs DISTINCT *)
      "SELECT ALL S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
       S.SNO = P.SNO AND P.COLOR = 'RED'";
      "SELECT DISTINCT S.SNO FROM SUPPLIER S";
      "SELECT DISTINCT A.SNO, A.ANO FROM AGENTS A" ]
  in
  let keys = List.map (key catalog) queries in
  let distinct = List.sort_uniq String.compare keys in
  Alcotest.(check int) "distinct queries, distinct keys" (List.length keys)
    (List.length distinct);
  Alcotest.(check bool) "tags namespace analyzers" true
    (key ~tag:"alg1" catalog example1 <> key ~tag:"fd" catalog example1)

let test_fingerprint_catalog_invalidation () =
  let k0 = key catalog example1 in
  (* any catalog change — even an unrelated table — moves the schema
     digest, so every old entry misses (coarse but sound invalidation) *)
  let cat' =
    Catalog.add_ddl catalog
      "CREATE TABLE AUDIT (EVENT INT NOT NULL, PRIMARY KEY (EVENT))"
  in
  Alcotest.(check bool) "new catalog, new key" true (k0 <> key cat' example1);
  (* a constraint change on a referenced table does too *)
  let cat'' =
    Catalog.add_ddl catalog
      "CREATE TABLE SUPPLIER (SNO INT NOT NULL, PRIMARY KEY (SNO))"
  in
  Alcotest.(check bool) "redefined table, new key" true
    (k0 <> key cat'' example1)

(* ---- cached verdicts ---- *)

let verdict_queries =
  [ example1;
    "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
    "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = \
     'Chicago'";
    "SELECT ALL P.SNO, P.PNO FROM PARTS P";
    "SELECT DISTINCT S.SCITY FROM SUPPLIER S" ]

let test_cached_verdict_consistency () =
  let cache = Analysis_cache.create () in
  Cache.Runtime.clear ();
  Cache.Runtime.with_enabled true (fun () ->
      List.iter
        (fun sql ->
          let q = parse_spec sql in
          let direct = A1.distinct_is_redundant catalog q in
          let miss = A1.distinct_is_redundant ~cache catalog q in
          let hit = A1.distinct_is_redundant ~cache catalog q in
          Alcotest.(check bool) ("alg1 miss: " ^ sql) direct miss;
          Alcotest.(check bool) ("alg1 hit: " ^ sql) direct hit;
          let direct_fd = FdA.distinct_is_redundant catalog q in
          let miss_fd = FdA.distinct_is_redundant ~cache catalog q in
          let hit_fd = FdA.distinct_is_redundant ~cache catalog q in
          Alcotest.(check bool) ("fd miss: " ^ sql) direct_fd miss_fd;
          Alcotest.(check bool) ("fd hit: " ^ sql) direct_fd hit_fd)
        verdict_queries);
  let c = Analysis_cache.counters cache in
  let n = List.length verdict_queries in
  Alcotest.(check int) "one miss per (query, analyzer)" (2 * n)
    c.L.c_misses;
  Alcotest.(check int) "one hit per (query, analyzer)" (2 * n) c.L.c_hits;
  Alcotest.(check int) "entries" (2 * n) (Analysis_cache.length cache)

(* the alpha-renamed twin is served from the first query's entry *)
let test_cached_verdict_shares_renamed () =
  let cache = Analysis_cache.create () in
  let q = parse_spec example1 in
  let renamed =
    parse_spec
      "SELECT DISTINCT X.SNO, Y.PNO, Y.PNAME FROM SUPPLIER X, PARTS Y \
       WHERE X.SNO = Y.SNO AND Y.COLOR = 'RED'"
  in
  ignore (A1.distinct_is_redundant ~cache catalog q);
  ignore (A1.distinct_is_redundant ~cache catalog renamed);
  let c = Analysis_cache.counters cache in
  Alcotest.(check int) "renamed twin hits" 1 c.L.c_hits;
  Alcotest.(check int) "one entry" 1 (Analysis_cache.length cache)

(* a traced request on a hit still produces the full analysis tree, plus
   exactly one cache.hit marker appended at this level *)
let test_cached_verdict_trace_complete () =
  let cache = Analysis_cache.create () in
  let q = parse_spec example1 in
  let bare = Trace.make () in
  ignore (A1.distinct_is_redundant ~trace:bare catalog q);
  ignore (A1.distinct_is_redundant ~cache catalog q);
  let traced = Trace.make () in
  ignore (A1.distinct_is_redundant ~cache ~trace:traced catalog q);
  let is_hit (n : Trace.node) = n.Trace.rule = "cache.hit" in
  let hits, rest = List.partition is_hit (Trace.nodes traced) in
  Alcotest.(check int) "one cache.hit marker" 1 (List.length hits);
  Alcotest.(check bool) "analysis nodes unchanged" true
    (rest = Trace.nodes bare)

(* LRU bound: verdict entries beyond the capacity evict oldest-first *)
let test_cached_verdict_eviction () =
  let cache = Analysis_cache.create ~capacity:2 () in
  let ask sql = ignore (A1.distinct_is_redundant ~cache catalog (parse_spec sql)) in
  ask "SELECT DISTINCT S.SNO FROM SUPPLIER S";
  ask "SELECT DISTINCT P.SNO, P.PNO FROM PARTS P";
  ask "SELECT DISTINCT A.SNO, A.ANO FROM AGENTS A";
  let c = Analysis_cache.counters cache in
  Alcotest.(check int) "bounded" 2 (Analysis_cache.length cache);
  Alcotest.(check int) "evicted one" 1 c.L.c_evictions;
  (* the first query was evicted: asking again misses *)
  ask "SELECT DISTINCT S.SNO FROM SUPPLIER S";
  Alcotest.(check int) "re-ask misses" 4 (Analysis_cache.counters cache).L.c_misses

let () =
  Alcotest.run "cache"
    [ ( "bitset",
        [ Alcotest.test_case "operations" `Quick test_bitset_ops;
          Alcotest.test_case "canonical serialization" `Quick
            test_bitset_canonical ] );
      ( "lru",
        [ Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "overwrite" `Quick test_lru_overwrite ] );
      ( "fdset",
        [ Alcotest.test_case "dedup regression" `Quick test_fdset_dedup ] );
      ( "closure memo",
        [ Alcotest.test_case "on/off equivalence" `Quick test_memo_equivalence;
          Alcotest.test_case "hit skips iterations" `Quick
            test_memo_hit_skips_iterations ] );
      ( "fingerprint",
        [ Alcotest.test_case "alpha renaming" `Quick
            test_fingerprint_alpha_renaming;
          Alcotest.test_case "discrimination" `Quick
            test_fingerprint_discriminates;
          Alcotest.test_case "catalog invalidation" `Quick
            test_fingerprint_catalog_invalidation ] );
      ( "verdicts",
        [ Alcotest.test_case "direct = miss = hit" `Quick
            test_cached_verdict_consistency;
          Alcotest.test_case "alpha-renamed twin shares entry" `Quick
            test_cached_verdict_shares_renamed;
          Alcotest.test_case "traced hit keeps the full tree" `Quick
            test_cached_verdict_trace_complete;
          Alcotest.test_case "LRU eviction" `Quick
            test_cached_verdict_eviction ] ) ]
