module A = Sql.Ast
module Value = Sqlval.Value

type instance = {
  rows : (string * Engine.Relation.row list) list;
  hosts : (string * Value.t) list;
}

type t = {
  ddl : A.create_table list;
  query : A.query;
  instances : instance list;
}

let catalog c = Schema_gen.catalog_of_ddl c.ddl

(* even positions (the first instance included, so it survives shrinking)
   load ordered, odd ones keep generation order: a fixed rule, so replay,
   --cache and --jobs see the same databases *)
let database ?(index = 0) c inst =
  Instance_gen.database ~ordered:(index mod 2 = 0) (catalog c) inst.rows

let generate ~rng ?(instances = 3) ?(rows = 6) ?(nested_or = 0.0) () =
  let ddl = Schema_gen.generate ~rng in
  let cat = Schema_gen.catalog_of_ddl ddl in
  (* short-circuit keeps the RNG stream untouched at the 0.0 default, so
     seeded campaigns without the knob stay byte-identical *)
  let query =
    if nested_or > 0.0 && Random.State.float rng 1.0 < nested_or then
      A.Spec (Query_gen.nested_or_spec ~rng cat)
    else Query_gen.query ~rng cat
  in
  let instances =
    List.init instances (fun _ ->
        { rows = Instance_gen.tables ~rng ~rows cat;
          hosts = Instance_gen.hosts ~rng query })
  in
  { ddl; query; instances }

(* ---- s-expression encoding ---- *)

(* values as SQL literal text: NULL, 42, 4.5, 'it''s', TRUE *)
let value_to_atom v = Sexp.Atom (Value.to_string v)

let value_of_atom s =
  match s with
  | Sexp.List _ -> failwith "corpus: expected a value atom"
  | Sexp.Atom a -> Value.of_sql_atom a

let instance_to_sexp inst =
  Sexp.List
    (Sexp.Atom "instance"
     :: List.map
          (fun (name, rows) ->
            Sexp.List
              (Sexp.Atom "table" :: Sexp.Atom name
               :: List.map
                    (fun row ->
                      Sexp.List
                        (Sexp.Atom "row"
                         :: List.map value_to_atom (Array.to_list row)))
                    rows))
          inst.rows
     @ [ Sexp.List
           (Sexp.Atom "hosts"
            :: List.map
                 (fun (h, v) -> Sexp.List [ Sexp.Atom h; value_to_atom v ])
                 inst.hosts) ])

let to_sexp c =
  Sexp.List
    [ Sexp.Atom "case";
      Sexp.List
        (Sexp.Atom "ddl"
         :: List.map (fun ct -> Sexp.Atom (Sql.Pretty.create_table ct)) c.ddl);
      Sexp.List [ Sexp.Atom "query"; Sexp.Atom (Sql.Pretty.query c.query) ];
      Sexp.List
        (Sexp.Atom "instances" :: List.map instance_to_sexp c.instances) ]

let field name = function
  | Sexp.List (Sexp.Atom tag :: rest) when tag = name -> rest
  | _ -> failwith (Printf.sprintf "corpus: expected a (%s ...) form" name)

let instance_of_sexp s =
  let parts = field "instance" s in
  let rows, hosts =
    List.fold_left
      (fun (rows, hosts) part ->
        match part with
        | Sexp.List (Sexp.Atom "table" :: Sexp.Atom name :: rs) ->
          let parsed =
            List.map
              (fun r -> Array.of_list (List.map value_of_atom (field "row" r)))
              rs
          in
          (rows @ [ (name, parsed) ], hosts)
        | Sexp.List (Sexp.Atom "hosts" :: hs) ->
          let parsed =
            List.map
              (function
                | Sexp.List [ Sexp.Atom h; v ] -> (h, value_of_atom v)
                | _ -> failwith "corpus: bad host binding")
              hs
          in
          (rows, hosts @ parsed)
        | _ -> failwith "corpus: bad instance part")
      ([], []) parts
  in
  { rows; hosts }

let of_sexp s =
  match field "case" s with
  | [ ddl_s; query_s; insts_s ] ->
    let ddl =
      List.map
        (function
          | Sexp.Atom text ->
            (match Sql.Parser.parse_statement text with
             | A.Create ct -> ct
             | _ -> failwith "corpus: ddl entry is not CREATE TABLE")
          | Sexp.List _ -> failwith "corpus: ddl entry must be SQL text")
        (field "ddl" ddl_s)
    in
    let query =
      match field "query" query_s with
      | [ Sexp.Atom text ] -> Sql.Parser.parse_query text
      | _ -> failwith "corpus: bad query form"
    in
    let instances = List.map instance_of_sexp (field "instances" insts_s) in
    { ddl; query; instances }
  | _ -> failwith "corpus: bad case form"

let save path c = Sexp.save path (to_sexp c)
let load path = of_sexp (Sexp.load path)

let pp ppf c =
  List.iter (fun ct -> Format.fprintf ppf "%s;@." (Sql.Pretty.create_table ct)) c.ddl;
  Format.fprintf ppf "%s@." (Sql.Pretty.query c.query);
  List.iteri
    (fun i inst ->
      Format.fprintf ppf "instance %d:@." i;
      List.iter
        (fun (name, rows) ->
          Format.fprintf ppf "  %s: %s@." name
            (String.concat " "
               (List.map
                  (fun row ->
                    "("
                    ^ String.concat ","
                        (List.map Value.to_string (Array.to_list row))
                    ^ ")")
                  rows)))
        inst.rows;
      if inst.hosts <> [] then
        Format.fprintf ppf "  hosts: %s@."
          (String.concat " "
             (List.map
                (fun (h, v) -> h ^ "=" ^ Value.to_string v)
                inst.hosts)))
    c.instances
