type choice = {
  impl : Engine.Exec.distinct_impl;
  name : string;
  reason : string;
  alg1_yes : bool;
  covered : int;
}

let applicable (q : Sql.Ast.query) =
  match q with
  | Sql.Ast.Spec spec -> spec.Sql.Ast.distinct = Sql.Ast.Distinct && spec.Sql.Ast.group_by = []
  | Sql.Ast.Setop _ -> false

let choose ?cache ?(trace = Trace.disabled) ?database ?config cat
    (q : Sql.Ast.query) =
  let alg1_yes =
    match q with
    | Sql.Ast.Spec spec when applicable q ->
      (try Uniqueness.Algorithm1.distinct_is_redundant ?cache ~trace cat spec
       with Fd.Derive.Unknown_table _ | Fd.Derive.Unknown_column _ -> false)
    | Sql.Ast.Spec _ | Sql.Ast.Setop _ -> false
  in
  (* the path [Operator.unique] will take, from the stream it will read
     under the configuration the query runs with (fresh stats: compiling
     narrates strategy choices into them) *)
  let stream =
    match database with
    | Some db when applicable q && not alg1_yes ->
      let config =
        Option.map
          (fun c -> { c with Engine.Exec.stats = Engine.Stats.create () })
          config
      in
      Engine.Exec.distinct_stream ?config db q
    | Some _ | None -> None
  in
  let path, covered, coverage =
    match stream with
    | Some (schema, order) ->
      let path, prefix = Engine.Operator.unique_path schema order in
      let arity = Schema.Relschema.arity schema in
      ( path,
        Array.length prefix,
        Printf.sprintf "order covers %d of %d columns" (Array.length prefix)
          arity )
    | None ->
      ( "hash-unique",
        0,
        if Option.is_none database then "no database given"
        else "order not probed" )
  in
  let c =
    if not (applicable q) then
      {
        impl = Engine.Exec.Stream_hash;
        name = "none";
        reason = "no top-level DISTINCT to plan (strategy unused)";
        alg1_yes = false;
        covered = 0;
      }
    else if alg1_yes then
      {
        impl = Engine.Exec.Stream_elided;
        name = "elided-unique";
        reason =
          "Algorithm 1 answered YES: the projection is duplicate-free, the \
           operator is a pass-through";
        alg1_yes;
        covered = 0;
      }
    else
      {
        impl = Engine.Exec.Stream_hash;
        name = path;
        reason =
          (match stream with
           | None ->
             "no duplicate-free proof and no verified order consulted: hash \
              dedup over every column"
           | Some _ ->
             Printf.sprintf "no duplicate-free proof; %s: %s" coverage
               (match path with
                | "sorted-unique" -> "a row is new iff it starts a run"
                | "prefix-unique" ->
                  "the uncovered columns are hashed, the table cleared at \
                   each new run of the covered ones"
                | _ -> "every column is hashed"));
        alg1_yes;
        covered;
      }
  in
  Trace.emitf trace (fun () ->
      Trace.node ~rule:"planner.distinct"
        ?citation:(if c.alg1_yes then Some "Theorem 1" else None)
        ~verdict:Trace.Chosen
        ~inputs:[ ("query", Sql.Pretty.query q) ]
        ~facts:
          [ ("strategy", c.name);
            ("alg1", if c.alg1_yes then "YES" else "no");
            ("order-prefix", coverage) ]
        c.reason);
  c
