open Ast

let comparison = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let agg_name = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Min -> "MIN"
  | Max -> "MAX"
  | Avg -> "AVG"

(* Every printer writes into one [Buffer], so output is linear in the
   AST's size: no [^] copies down a left-deep AND chain or a NOT chain. *)
let add = Buffer.add_string

let add_list buf sep add_item = function
  | [] -> ()
  | x :: rest ->
    add_item buf x;
    List.iter (fun y -> add buf sep; add_item buf y) rest

let rec add_scalar buf = function
  | Col a -> add buf (Schema.Attr.to_string a)
  | Const v -> add buf (Sqlval.Value.to_string v)
  | Host h -> add buf ":"; add buf h
  | Agg (fn, None) -> add buf (agg_name fn); add buf "(*)"
  | Agg (fn, Some s) ->
    add buf (agg_name fn);
    add buf "(";
    add_scalar buf s;
    add buf ")"

let add_value buf v = add buf (Sqlval.Value.to_string v)

(* Precedence: OR(1) < AND(2) < NOT(3) < atoms. Parenthesize a child whose
   precedence is lower than the context requires. *)
let rec add_pred buf ~prec p =
  let wrap need body =
    if need > prec then body ()
    else begin
      add buf "(";
      body ();
      add buf ")"
    end
  in
  let binary need a sep b =
    wrap need (fun () ->
        add_pred buf ~prec:need a;
        add buf sep;
        add_pred buf ~prec:need b)
  in
  match p with
  | Ptrue -> add buf "TRUE"
  | Pfalse -> add buf "FALSE"
  | Cmp (op, a, b) ->
    add_scalar buf a;
    add buf " ";
    add buf (comparison op);
    add buf " ";
    add_scalar buf b
  | Between (a, lo, hi) ->
    add_scalar buf a;
    add buf " BETWEEN ";
    add_scalar buf lo;
    add buf " AND ";
    add_scalar buf hi
  | In_list (a, vs) ->
    add_scalar buf a;
    add buf " IN (";
    add_list buf ", " add_value vs;
    add buf ")"
  | Is_null a -> add_scalar buf a; add buf " IS NULL"
  | Is_not_null a -> add_scalar buf a; add buf " IS NOT NULL"
  | Not p -> wrap 3 (fun () -> add buf "NOT "; add_pred buf ~prec:3 p)
  | And (a, b) -> binary 2 a " AND " b
  | Or (a, b) -> binary 1 a " OR " b
  | Exists q ->
    add buf "EXISTS (";
    add_query_spec buf q;
    add buf ")"

and add_query_spec buf q =
  add buf "SELECT ";
  add buf (match q.distinct with Distinct -> "DISTINCT " | All -> "ALL ");
  (match q.select with
   | Star -> add buf "*"
   | Cols cs -> add_list buf ", " add_scalar cs);
  add buf " FROM ";
  add_list buf ", "
    (fun buf f ->
      add buf f.table;
      Option.iter (fun c -> add buf " "; add buf c) f.corr)
    q.from;
  (match q.where with
   | Ptrue -> ()
   | w -> add buf " WHERE "; add_pred buf ~prec:0 w);
  let add_cols kw = function
    | [] -> ()
    | cols -> add buf kw; add_list buf ", " add_scalar cols
  in
  add_cols " GROUP BY " q.group_by;
  add_cols " ORDER BY " q.order_by

let rec add_query buf = function
  | Spec q -> add_query_spec buf q
  | Setop (op, d, a, b) ->
    add_query buf a;
    add buf (match op with Intersect -> " INTERSECT" | Except -> " EXCEPT");
    add buf (match d with All -> " ALL " | Distinct -> " ");
    add_query buf b

let to_string add_x x =
  let buf = Buffer.create 64 in
  add_x buf x;
  Buffer.contents buf

let scalar = to_string add_scalar
let pred = to_string (add_pred ~prec:0)
let query_spec = to_string add_query_spec
let query = to_string add_query

let col_def (c : col_def) =
  Printf.sprintf "%s %s%s" c.cd_name
    (Schema.Relschema.col_type_name c.cd_type)
    (if c.cd_not_null then " NOT NULL" else "")

let table_constraint = function
  | C_primary_key cols -> "PRIMARY KEY (" ^ String.concat ", " cols ^ ")"
  | C_unique cols -> "UNIQUE (" ^ String.concat ", " cols ^ ")"
  | C_check p -> "CHECK (" ^ pred p ^ ")"
  | C_foreign_key (cols, tbl, ref_cols) ->
    "FOREIGN KEY (" ^ String.concat ", " cols ^ ") REFERENCES " ^ tbl
    ^ (match ref_cols with
       | [] -> ""
       | _ -> " (" ^ String.concat ", " ref_cols ^ ")")

let create_table (ct : create_table) =
  Printf.sprintf "CREATE TABLE %s (%s)" ct.ct_name
    (String.concat ", "
       (List.map col_def ct.ct_cols
        @ List.map table_constraint ct.ct_constraints))

let create_view (cv : create_view) =
  Printf.sprintf "CREATE VIEW %s AS %s" cv.cv_name (query_spec cv.cv_query)

let statement = function
  | Query q -> query q
  | Create ct -> create_table ct
  | Create_view cv -> create_view cv

let pp_query ppf q = Format.pp_print_string ppf (query q)
let pp_pred ppf p = Format.pp_print_string ppf (pred p)
