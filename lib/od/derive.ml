module Attr = Schema.Attr

type source = {
  src_ods : Odset.t;
  src_fds : Fd.Fdset.t;
  src_canon : Attr.t -> Attr.t;
}

(* Equality conditions usable for OD derivation: the same singleton-CNF
   mining as [Fd.Derive] — only conjuncts that are single literals hold in
   every qualifying row. *)
let conjunct_equalities resolve (where : Sql.Ast.pred) =
  let clauses = Logic.Norm.usable_clauses where in
  List.filter_map
    (function
      | [ lit ] ->
        (match Logic.Equalities.of_literal lit with
         | Some (Logic.Equalities.Type1 (a, v)) ->
           Some (Logic.Equalities.Type1 (resolve a, v))
         | Some (Logic.Equalities.Type2 (a, b)) ->
           Some (Logic.Equalities.Type2 (resolve a, resolve b))
         | None -> None)
      | _ -> None)
    clauses

let of_query_spec ?(trace = Trace.disabled) cat (q : Sql.Ast.query_spec) =
  let fd_src = Fd.Derive.of_query_spec cat q in
  let resolve = Fd.Derive.resolver cat q.from in
  (* FD→OD interaction, as an explicit base OD per declared candidate key:
     a stream sorted on the key columns is sorted on any extension of
     them, in particular on the occurrence's full column list — within a
     tie group of a key there is at most one row, so nothing is left to
     order. *)
  let key_ods =
    List.concat_map
      (fun (f : Sql.Ast.from_item) ->
        let def = Catalog.find_exn cat f.table in
        let corr = Sql.Ast.from_name f in
        let schema = Schema.Relschema.rename_rel corr def.Catalog.tbl_schema in
        let cols = Schema.Relschema.attrs schema in
        List.map
          (fun k ->
            let key = Catalog.key_attrs ~corr k in
            let rest =
              List.filter
                (fun c -> not (List.exists (Attr.equal c) key))
                cols
            in
            let od = Odset.make_od key (key @ rest) in
            Trace.emitf trace (fun () ->
                Trace.node ~rule:"od.key-order"
                  ~citation:"Szlichta et al. 2012 (FD→OD interaction)"
                  ~inputs:[ ("occurrence", corr) ]
                  ~facts:[ ("od", Format.asprintf "%a" Odset.pp_od od) ]
                  "a candidate-key prefix order determines the full order: \
                   key tie groups hold at most one row");
            od)
          (Catalog.candidate_keys def))
      q.from
  in
  let equalities = conjunct_equalities resolve q.where in
  let eq_ods =
    List.concat_map
      (fun eq ->
        let ods =
          match eq with
          | Logic.Equalities.Type1 (a, _) ->
            (* a column pinned to one value is trivially sorted *)
            [ Odset.make_od [] [ a ] ]
          | Logic.Equalities.Type2 (a, b) ->
            [ Odset.make_od [ a ] [ b ]; Odset.make_od [ b ] [ a ] ]
        in
        Trace.emitf trace (fun () ->
            Trace.node ~rule:"od.equality-order"
              ~citation:"Szlichta et al. 2012 (Replace)"
              ~inputs:
                [ ("condition", Format.asprintf "%a" Logic.Equalities.pp eq) ]
              ~facts:
                (List.map
                   (fun od -> ("od", Format.asprintf "%a" Odset.pp_od od))
                   ods)
              (match eq with
               | Logic.Equalities.Type1 _ ->
                 "a column bound to one value for the whole execution is \
                  sorted under any arrival order"
               | Logic.Equalities.Type2 _ ->
                 "equated columns carry identical values in every \
                  qualifying row, so each is sorted whenever the other is"));
        ods)
      equalities
  in
  {
    src_ods = Odset.of_list (key_ods @ eq_ods);
    src_fds = fd_src.Fd.Derive.src_fds;
    src_canon =
      Logic.Equalities.Classes.(representative (build equalities));
  }

let covers ?trace cat (q : Sql.Ast.query_spec) ~stream keys =
  let src = of_query_spec ?trace cat q in
  Odset.covers ~fds:src.src_fds ~equiv:src.src_canon src.src_ods ~stream keys
