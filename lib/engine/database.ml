module Value = Sqlval.Value
module Truth = Sqlval.Truth

(* [count] is [List.length rows], kept in step by every writer so the
   planner's cardinality probes cost O(1); every stored row has the
   table's arity, checked once when it enters. *)
type entry = {
  mutable rows : Relation.row list;
  mutable count : int;
  mutable order : string list;
}

type t = {
  cat : Catalog.t;
  tables : (string, entry) Hashtbl.t;
}

let canon = String.uppercase_ascii

let create cat =
  let tables = Hashtbl.create 8 in
  List.iter
    (fun def ->
      Hashtbl.replace tables def.Catalog.tbl_name
        { rows = []; count = 0; order = [] })
    (Catalog.tables cat);
  { cat; tables }

let catalog t = t.cat

let cell t name =
  match Hashtbl.find_opt t.tables (canon name) with
  | Some c -> c
  | None -> failwith ("Database: unknown table " ^ name)

let arity_of def = Schema.Relschema.arity def.Catalog.tbl_schema

let bad_arity op name =
  failwith (Printf.sprintf "Database.%s %s: bad arity" op name)

(* The arity check and the row count in one pass. *)
let check_arity t name rows =
  let def = Catalog.find_exn t.cat name in
  let arity = arity_of def in
  let count =
    List.fold_left
      (fun n r ->
        if Array.length r <> arity then bad_arity "load" name else n + 1)
      0 rows
  in
  (def, count)

let store t name rows count ~order =
  let c = cell t name in
  c.rows <- rows;
  c.count <- count;
  c.order <- order

let load t name rows =
  let _, count = check_arity t name rows in
  store t name rows count ~order:[]

let load_sorted t name rows ~order =
  let def, count = check_arity t name rows in
  if order = [] then failwith "Database.load_sorted: empty order";
  let schema = def.Catalog.tbl_schema in
  let idxs =
    List.map
      (fun col ->
        match
          Schema.Relschema.find_index schema
            (Schema.Attr.make ~rel:def.Catalog.tbl_name ~name:col)
        with
        | Some i -> i
        | None ->
          failwith
            (Printf.sprintf "Database.load_sorted %s: unknown column %s" name
               col))
      order
  in
  let key r = List.map (fun i -> r.(i)) idxs in
  let rec verify = function
    | a :: (b :: _ as rest) ->
      if List.compare Value.compare_total (key a) (key b) > 0 then
        failwith
          (Printf.sprintf
             "Database.load_sorted %s: rows not sorted on (%s)" name
             (String.concat ", " order));
      verify rest
    | [] | [ _ ] -> ()
  in
  verify rows;
  store t name rows count ~order:(List.map String.uppercase_ascii order)

(* A bare insert can land anywhere, so any previously verified physical
   order stops being trustworthy. *)
let insert t name row =
  let c = cell t name in
  if Array.length row <> arity_of (Catalog.find_exn t.cat name) then
    bad_arity "insert" name;
  c.rows <- row :: c.rows;
  c.count <- c.count + 1;
  c.order <- []

let order t name = (cell t name).order

let table t name =
  let def = Catalog.find_exn t.cat name in
  if Catalog.is_view def then
    failwith
      (Printf.sprintf
         "Database: %s is a view and holds no rows; expand it first \
          (Uniqueness.Views.expand)"
         name);
  { Relation.schema = def.Catalog.tbl_schema; rows = (cell t name).rows }

let row_count t name = (cell t name).count

type violation =
  | Null_in_primary_key of string * Relation.row
  | Duplicate_key of string * string list * Relation.row
  | Check_failed of string * Sql.Ast.pred * Relation.row
  | Dangling_reference of string * string list * Relation.row

let validate t =
  let violations = ref [] in
  List.iter
    (fun def ->
      let name = def.Catalog.tbl_name in
      let schema = def.Catalog.tbl_schema in
      let rows = (cell t name).rows in
      let col_index cname =
        Schema.Relschema.index_of schema (Schema.Attr.make ~rel:name ~name:cname)
      in
      (* key constraints: uniqueness under the null-comparison operator;
         primary keys additionally reject NULL *)
      List.iter
        (fun (k : Catalog.key) ->
          let idxs = Array.of_list (List.map col_index k.key_cols) in
          let seen = Relation.Keyed.create idxs in
          List.iter
            (fun row ->
              if k.key_primary && Relation.has_null_at idxs row then
                violations := Null_in_primary_key (name, row) :: !violations;
              let count = Relation.Keyed.count seen in
              if Relation.Keyed.find_or_add seen row < count then
                violations := Duplicate_key (name, k.key_cols, row) :: !violations)
            rows)
        def.Catalog.tbl_keys;
      (* referential constraints: every fully non-null FK value must have
         a parent (simple-match semantics) *)
      List.iter
        (fun (fk : Catalog.foreign_key) ->
          match Catalog.find t.cat fk.Catalog.fk_table with
          | None -> ()
          | Some ref_def ->
            let ref_cols = Catalog.resolve_fk t.cat fk in
            let ref_schema = ref_def.Catalog.tbl_schema in
            let ref_idx =
              Array.of_list
                (List.map
                   (fun c ->
                     Schema.Relschema.index_of ref_schema
                       (Schema.Attr.make ~rel:ref_def.Catalog.tbl_name ~name:c))
                   ref_cols)
            in
            let parents = Relation.Keyed.create ref_idx in
            List.iter
              (fun prow -> ignore (Relation.Keyed.find_or_add parents prow))
              (cell t fk.Catalog.fk_table).rows;
            let fk_idx = Array.of_list (List.map col_index fk.Catalog.fk_cols) in
            List.iter
              (fun row ->
                if
                  (not (Relation.has_null_at fk_idx row))
                  && Relation.Keyed.find parents fk_idx row < 0
                then
                  violations :=
                    Dangling_reference (name, fk.Catalog.fk_cols, row)
                    :: !violations)
              rows)
        def.Catalog.tbl_foreign_keys;
      (* check constraints: violated only when definitely false *)
      let resolver =
        {
          Logic.Eval.column =
            (fun a ->
              match Schema.Relschema.find_index schema a with
              | Some i -> fun row -> row.(i)
              | None -> fun _ -> raise (Logic.Eval.Unbound_column a)
              | exception Failure msg -> fun _ -> failwith msg);
          host = (fun h -> raise (Logic.Eval.Unbound_host h));
          exists =
            (fun _ _ -> invalid_arg "Database.validate: EXISTS in a CHECK");
        }
      in
      List.iter
        (fun check ->
          let holds = Logic.Eval.compile_pred resolver check in
          List.iter
            (fun row ->
              if not (Truth.is_not_false (holds row)) then
                violations := Check_failed (name, check, row) :: !violations)
            rows)
        def.Catalog.tbl_checks)
    (Catalog.tables t.cat);
  List.rev !violations

let pp_row ppf row =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Value.to_string row)))

let pp_violation ppf = function
  | Null_in_primary_key (tbl, row) ->
    Format.fprintf ppf "%s: NULL in primary key %a" tbl pp_row row
  | Duplicate_key (tbl, cols, row) ->
    Format.fprintf ppf "%s: duplicate key (%s) %a" tbl
      (String.concat ", " cols) pp_row row
  | Check_failed (tbl, check, row) ->
    Format.fprintf ppf "%s: CHECK (%s) failed for %a" tbl
      (Sql.Pretty.pred check) pp_row row
  | Dangling_reference (tbl, cols, row) ->
    Format.fprintf ppf "%s: dangling reference (%s) %a" tbl
      (String.concat ", " cols) pp_row row
