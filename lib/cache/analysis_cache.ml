module Ast = Sql.Ast
module Attr = Schema.Attr

module Fingerprint = struct
  exception Fallback

  (* ---- schema digest ---- *)

  let add_table buf (d : Catalog.table_def) =
    Buffer.add_string buf d.tbl_name;
    Buffer.add_char buf '{';
    List.iter
      (fun (c : Schema.Relschema.column) ->
        Buffer.add_string buf (Attr.to_string c.attr);
        Buffer.add_char buf ':';
        Buffer.add_string buf (Schema.Relschema.col_type_name c.ctype);
        Buffer.add_char buf (if c.nullable then '?' else '!');
        Buffer.add_char buf ',')
      (Schema.Relschema.columns d.tbl_schema);
    Buffer.add_char buf '|';
    List.iter
      (fun (k : Catalog.key) ->
        Buffer.add_string buf (String.concat "," k.key_cols);
        Buffer.add_char buf (if k.key_primary then 'P' else 'U');
        Buffer.add_char buf ';')
      d.tbl_keys;
    Buffer.add_char buf '|';
    List.iter
      (fun p ->
        Buffer.add_string buf (Sql.Pretty.pred p);
        Buffer.add_char buf ';')
      d.tbl_checks;
    Buffer.add_char buf '|';
    List.iter
      (fun (fk : Catalog.foreign_key) ->
        Buffer.add_string buf (String.concat "," fk.fk_cols);
        Buffer.add_string buf "->";
        Buffer.add_string buf fk.fk_table;
        Buffer.add_char buf '(';
        Buffer.add_string buf (String.concat "," fk.fk_ref_cols);
        Buffer.add_string buf ");")
      d.tbl_foreign_keys;
    (match d.tbl_view with
    | None -> ()
    | Some v ->
      Buffer.add_string buf "|view:";
      Buffer.add_string buf (Sql.Pretty.query_spec v.vw_spec);
      List.iter
        (fun (n, s) ->
          Buffer.add_char buf ',';
          Buffer.add_string buf n;
          Buffer.add_char buf '=';
          Buffer.add_string buf (Sql.Pretty.scalar s))
        v.vw_columns);
    Buffer.add_char buf '}'

  let compute_digest cat =
    let buf = Buffer.create 256 in
    let tables =
      List.sort
        (fun (a : Catalog.table_def) b -> String.compare a.tbl_name b.tbl_name)
        (Catalog.tables cat)
    in
    List.iter (add_table buf) tables;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  (* Catalogs are immutable values; "catalog change" means a new value, so a
     single-slot memo on physical equality covers the common case (one
     catalog reused across a whole batch) and can never serve a stale
     digest. Atomic for the benefit of worker domains: two that race on a
     cold slot both compute the same digest and one write wins — never a
     stale or torn value. *)
  let digest_memo : (Catalog.t * string) option Atomic.t = Atomic.make None

  let schema_digest cat =
    match Atomic.get digest_memo with
    | Some (c, d) when c == cat -> d
    | _ ->
      let d = compute_digest cat in
      Atomic.set digest_memo (Some (cat, d));
      d

  (* ---- canonical (alpha-renamed) query text ---- *)

  (* A scope is one query block: its FROM list plus the renaming of its
     correlation names to canonical "T<depth>_<i>" names. Scopes are kept
     innermost-first, mirroring SQL name resolution for correlated
     subqueries. *)
  type scope = {
    sc_from : Ast.from_item list;
    sc_resolve : Attr.t -> Attr.t; (* built once per scope *)
    sc_renames : (string * string) list; (* uppercase old name -> new name *)
  }

  let up = String.uppercase_ascii

  (* Could [a] refer to a column of this scope? Used to decide whether a
     failed resolution may legitimately fall through to an enclosing scope
     (the name is absent here) or must abort fingerprinting (ambiguity or an
     unknown table — cases where we refuse to guess what the analyzers would
     do). *)
  let scope_binds cat scope (a : Attr.t) =
    if a.Attr.rel <> "" then
      List.exists (fun f -> up (Ast.from_name f) = up a.Attr.rel) scope.sc_from
    else
      List.exists
        (fun (f : Ast.from_item) ->
          match Catalog.find cat f.table with
          | None -> raise Fallback
          | Some d ->
            List.exists
              (fun (attr : Attr.t) -> up attr.Attr.name = up a.Attr.name)
              (Schema.Relschema.attrs d.tbl_schema))
        scope.sc_from

  let resolve_in_scopes cat scopes (a : Attr.t) =
    let rec go = function
      | [] -> raise Fallback
      | scope :: outer -> (
        match scope.sc_resolve a with
        | r -> (r, scope)
        | exception Fd.Derive.Unknown_column _ ->
          if scope_binds cat scope a then raise Fallback else go outer
        | exception Fd.Derive.Unknown_table _ -> raise Fallback)
    in
    go scopes

  let rename_in_scope scope (a : Attr.t) =
    match List.assoc_opt (up a.Attr.rel) scope.sc_renames with
    | Some fresh -> { Attr.rel = fresh; name = up a.Attr.name }
    | None -> raise Fallback

  let canon_spec cat (q : Ast.query_spec) =
    let rec spec depth outer (q : Ast.query_spec) =
      let from' =
        List.mapi
          (fun i (f : Ast.from_item) ->
            { f with Ast.corr = Some (Printf.sprintf "T%d_%d" depth i) })
          q.Ast.from
      in
      let renames =
        List.map2
          (fun old fresh ->
            (up (Ast.from_name old), Option.get fresh.Ast.corr))
          q.Ast.from from'
      in
      let scopes =
        { sc_from = q.Ast.from;
          sc_resolve =
            (* a FROM list that fails to resolve (an unknown table) fails
               only when one of its columns is looked up *)
            (match Fd.Derive.resolver cat q.Ast.from with
             | r -> r
             | exception e -> fun _ -> raise e);
          sc_renames = renames }
        :: outer
      in
      let col (a : Attr.t) =
        if a.Attr.name = "*" then
          (* qualified star: no column to resolve, rename the qualifier *)
          let rec go = function
            | [] -> raise Fallback
            | scope :: rest -> (
              match List.assoc_opt (up a.Attr.rel) scope.sc_renames with
              | Some fresh -> { a with Attr.rel = fresh }
              | None -> go rest)
          in
          go scopes
        else
          let resolved, scope = resolve_in_scopes cat scopes a in
          rename_in_scope scope resolved
      in
      let rec scalar = function
        | Ast.Col a -> Ast.Col (col a)
        | (Ast.Const _ | Ast.Host _) as s -> s
        | Ast.Agg (fn, Some s) -> Ast.Agg (fn, Some (scalar s))
        | Ast.Agg (_, None) as s -> s
      in
      let rec pred = function
        | (Ast.Ptrue | Ast.Pfalse) as p -> p
        | Ast.Cmp (op, a, b) -> Ast.Cmp (op, scalar a, scalar b)
        | Ast.Between (a, lo, hi) -> Ast.Between (scalar a, scalar lo, scalar hi)
        | Ast.In_list (a, vs) -> Ast.In_list (scalar a, vs)
        | Ast.Is_null a -> Ast.Is_null (scalar a)
        | Ast.Is_not_null a -> Ast.Is_not_null (scalar a)
        | Ast.And (a, b) -> Ast.And (pred a, pred b)
        | Ast.Or (a, b) -> Ast.Or (pred a, pred b)
        | Ast.Not a -> Ast.Not (pred a)
        | Ast.Exists inner -> Ast.Exists (spec (depth + 1) scopes inner)
      in
      let select =
        match q.Ast.select with
        | Ast.Star -> Ast.Star
        | Ast.Cols cs -> Ast.Cols (List.map scalar cs)
      in
      {
        q with
        Ast.select;
        from = from';
        where = pred q.Ast.where;
        group_by = List.map scalar q.Ast.group_by;
      }
    in
    spec 0 [] q

  let query_key ~tag cat (q : Ast.query_spec) =
    let body =
      match canon_spec cat q with
      | c -> "canon:" ^ Sql.Pretty.query_spec c
      | exception Fallback ->
        (* Queries we cannot canonicalize keep their literal text: the cache
           then discriminates more finely than necessary, which only costs
           sharing, never soundness. *)
        "raw:" ^ Sql.Pretty.query_spec q
    in
    tag ^ "#" ^ schema_digest cat ^ "#" ^ body
end

(* A plain LRU: worker domains reach it only inside {!epoch}, where it is
   frozen and read through [Lru.peek]. *)
type t = {
  verdicts : (string, bool) Cache.Lru.t;
  epoch_slot : (string, bool) Cache.Epoch.slot;
}

let default_capacity = 1024
let create ?(capacity = default_capacity) () =
  {
    verdicts = Cache.Lru.create ~capacity;
    epoch_slot = Cache.Epoch.make_slot ();
  }

let counters t = Cache.Lru.counters t.verdicts
let reset_counters t = Cache.Lru.reset_counters t.verdicts
let clear t = Cache.Lru.clear t.verdicts
let length t = Cache.Lru.length t.verdicts

let hit_node key verdict =
  Trace.node ~rule:"cache.hit"
    ~inputs:[ ("key", Digest.to_hex (Digest.string key)) ]
    ~facts:[ ("verdict", string_of_bool verdict) ]
    ~verdict:Trace.Info
    "verdict served from the analysis cache"

let lookup t key =
  if Cache.Epoch.active () then
    Cache.Epoch.find t.epoch_slot ~peek:(Cache.Lru.peek t.verdicts) key
  else Cache.Lru.find t.verdicts key

let store t key v =
  if Cache.Epoch.active () then Cache.Epoch.store t.epoch_slot key v
  else Cache.Lru.add t.verdicts key v

let cached_verdict t ~tag ?(trace = Trace.disabled) ~run cat q =
  let key = Fingerprint.query_key ~tag cat q in
  match lookup t key with
  | Some v when not (Trace.enabled trace) -> v
  | Some v ->
    (* A traced request must still produce the full provenance tree, so the
       analysis runs anyway; the hit only adds a marker node. This keeps
       traced output identical with and without a cache, modulo the
       [cache.hit] node (the difftest oracle strips it before comparing). *)
    let fresh = run () in
    Trace.emitf trace (fun () -> hit_node key v);
    fresh
  | None ->
    let v = run () in
    store t key v;
    v

let merge_epoch t =
  let d = Cache.Epoch.drain t.epoch_slot in
  List.iter (fun (k, v) -> Cache.Lru.add t.verdicts k v) d.Cache.Epoch.pairs;
  Cache.Lru.add_counters t.verdicts ~hits:d.Cache.Epoch.hits
    ~misses:d.Cache.Epoch.misses

(* The single entry point for epoch-scoped parallel analysis: the closure
   memo's epoch, with this cache's verdict delta merged at the barrier
   too. *)
let epoch t f = Cache.Runtime.epoch ~merge:(fun () -> merge_epoch t) f
