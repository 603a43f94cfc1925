(** Abstract syntax for the SQL2 subset of the paper (section 2):
    query specifications (select / project / extended Cartesian product,
    [EXISTS] subqueries, host variables) and query expressions built from
    [INTERSECT \[ALL\]] and [EXCEPT \[ALL\]]; DDL with [PRIMARY KEY],
    [UNIQUE], [CHECK]. This module intentionally has no interface file:
    every constructor is public, and pattern matches over the whole AST
    are the norm throughout the analyzers. *)

type comparison = Eq | Ne | Lt | Le | Gt | Ge

(** Aggregate functions: an extension beyond the paper's query class
    (section 8 lists Group By as future work). A star-count is
    [Agg (Count, None)]. *)
type agg_fn = Count | Sum | Min | Max | Avg

type scalar =
  | Col of Schema.Attr.t
      (** a column reference; the special name ["*"] with a qualifier
          denotes a qualified star such as [S.*], expanded during
          translation *)
  | Const of Sqlval.Value.t
  | Host of string
      (** host variable, written [:NAME]; value bound at run time *)
  | Agg of agg_fn * scalar option
      (** select-list only; rejected in predicates at evaluation time *)

type distinctness = All | Distinct

type pred =
  | Ptrue
  | Pfalse
  | Cmp of comparison * scalar * scalar
  | Between of scalar * scalar * scalar
  | In_list of scalar * Sqlval.Value.t list
  | Is_null of scalar
  | Is_not_null of scalar
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Exists of query_spec  (** correlated positive existential subquery *)

and select_list =
  | Star
  | Cols of scalar list

and from_item = { table : string; corr : string option }

and query_spec = {
  distinct : distinctness;
  select : select_list;
  from : from_item list;
  where : pred;
  group_by : scalar list;
      (** grouping columns; [[]] = no grouping (a select list containing
          only aggregates then forms a single global group) *)
  order_by : scalar list;
      (** [ORDER BY] columns, ascending with NULLS FIRST (the engine's
          total order); [[]] = no required output order *)
}

let plain_spec ?(distinct = All) ?(order_by = []) ~select ~from ~where () =
  { distinct; select; from; where; group_by = []; order_by }

type setop = Intersect | Except

type query =
  | Spec of query_spec
  | Setop of setop * distinctness * query * query

(* ---- DDL ---- *)

type table_constraint =
  | C_primary_key of string list
  | C_unique of string list
  | C_check of pred
  | C_foreign_key of string list * string * string list
      (** referencing columns, referenced table, referenced columns
          ([[]] = the referenced table's primary key) — the inclusion
          dependencies of the paper's future-work list *)

type col_def = {
  cd_name : string;
  cd_type : Schema.Relschema.col_type;
  cd_not_null : bool;
}

type create_table = {
  ct_name : string;
  ct_cols : col_def list;
  ct_constraints : table_constraint list;
}

type create_view = {
  cv_name : string;
  cv_query : query_spec;
}

type statement =
  | Query of query
  | Create of create_table
  | Create_view of create_view

(* ---- helpers ---- *)

let comparison_flip = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(** 3VL negation of a comparison operator: [NOT (a < b)] is [a >= b] in
    SQL because unknown maps to unknown on both sides. *)
let comparison_negate = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let conj = function
  | [] -> Ptrue
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let disj = function
  | [] -> Pfalse
  | p :: ps -> List.fold_left (fun acc q -> Or (acc, q)) p ps

(** Flatten a predicate into its top-level conjuncts. *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | Ptrue -> []
  | p -> [ p ]

let from_name (f : from_item) =
  match f.corr with Some c -> c | None -> f.table

(** All host variables mentioned in a predicate, in syntactic order. *)
let rec hosts_of_pred p =
  let rec of_scalar = function
    | Host h -> [ h ]
    | Col _ | Const _ -> []
    | Agg (_, Some s) -> of_scalar s
    | Agg (_, None) -> []
  in
  match p with
  | Ptrue | Pfalse -> []
  | Cmp (_, a, b) -> of_scalar a @ of_scalar b
  | Between (a, b, c) -> of_scalar a @ of_scalar b @ of_scalar c
  | In_list (a, _) -> of_scalar a
  | Is_null a | Is_not_null a -> of_scalar a
  | And (a, b) | Or (a, b) -> hosts_of_pred a @ hosts_of_pred b
  | Not a -> hosts_of_pred a
  | Exists q -> hosts_of_pred q.where

let hosts_of_query_spec q = List.sort_uniq String.compare (hosts_of_pred q.where)

(** Map every column reference in a predicate, descending into [EXISTS]
    subquery predicates (their [FROM] lists are untouched). *)
let rec map_cols f p =
  let rec scalar = function
    | Col a -> Col (f a)
    | (Const _ | Host _) as s -> s
    | Agg (fn, Some s) -> Agg (fn, Some (scalar s))
    | Agg (_, None) as s -> s
  in
  match p with
  | Ptrue | Pfalse -> p
  | Cmp (op, a, b) -> Cmp (op, scalar a, scalar b)
  | Between (a, lo, hi) -> Between (scalar a, scalar lo, scalar hi)
  | In_list (a, vs) -> In_list (scalar a, vs)
  | Is_null a -> Is_null (scalar a)
  | Is_not_null a -> Is_not_null (scalar a)
  | And (a, b) -> And (map_cols f a, map_cols f b)
  | Or (a, b) -> Or (map_cols f a, map_cols f b)
  | Not a -> Not (map_cols f a)
  | Exists q -> Exists { q with where = map_cols f q.where }

(** All table/correlation qualifiers referenced by a predicate's columns. *)
let rec rels_of_pred p =
  let rec of_scalar = function
    | Col a -> if a.Schema.Attr.rel = "" then [] else [ a.Schema.Attr.rel ]
    | Const _ | Host _ -> []
    | Agg (_, Some s) -> of_scalar s
    | Agg (_, None) -> []
  in
  match p with
  | Ptrue | Pfalse -> []
  | Cmp (_, a, b) -> of_scalar a @ of_scalar b
  | Between (a, b, c) -> of_scalar a @ of_scalar b @ of_scalar c
  | In_list (a, _) | Is_null a | Is_not_null a -> of_scalar a
  | And (a, b) | Or (a, b) -> rels_of_pred a @ rels_of_pred b
  | Not a -> rels_of_pred a
  | Exists q -> rels_of_pred q.where

(** Columns a predicate mentions, left to right. EXISTS bodies and
    aggregate arguments are not entered. *)
let cols_of_pred p =
  let of_scalar s acc =
    match s with Col a -> a :: acc | Const _ | Host _ | Agg _ -> acc
  in
  let rec go p acc =
    match p with
    | Ptrue | Pfalse | Exists _ -> acc
    | Cmp (_, a, b) -> of_scalar a (of_scalar b acc)
    | Between (a, b, c) -> of_scalar a (of_scalar b (of_scalar c acc))
    | In_list (a, _) | Is_null a | Is_not_null a -> of_scalar a acc
    | And (a, b) | Or (a, b) -> go a (go b acc)
    | Not a -> go a acc
  in
  go p []

(** Does the predicate contain an EXISTS subquery? *)
let rec contains_exists = function
  | Exists _ -> true
  | And (a, b) | Or (a, b) -> contains_exists a || contains_exists b
  | Not a -> contains_exists a
  | Ptrue | Pfalse | Cmp _ | Between _ | In_list _ | Is_null _
  | Is_not_null _ -> false

let rec rels_of_scalar = function
  | Col a -> if a.Schema.Attr.rel = "" then [] else [ a.Schema.Attr.rel ]
  | Const _ | Host _ -> []
  | Agg (_, Some s) -> rels_of_scalar s
  | Agg (_, None) -> []
