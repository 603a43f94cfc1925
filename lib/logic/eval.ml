open Sql.Ast
module Value = Sqlval.Value
module Truth = Sqlval.Truth

exception Unbound_column of Schema.Attr.t
exception Unbound_host of string

type 'env resolver = {
  column : Schema.Attr.t -> 'env -> Value.t;
  host : string -> Value.t;
  exists : query_spec -> 'env -> bool;
}

let compile_scalar r = function
  | Col a -> r.column a
  | Const v -> fun _ -> v
  | Host h ->
    let v = lazy (r.host h) in
    fun _ -> Lazy.force v
  | Agg _ ->
    fun _ -> invalid_arg "Eval.compile_scalar: aggregate outside a select list"

let comparison = function
  | Eq -> Value.eq3
  | Ne -> Value.ne3
  | Lt -> Value.lt3
  | Le -> Value.le3
  | Gt -> Value.gt3
  | Ge -> Value.ge3

let compile_pred ?(logic = Sqlval.Logic_mode.default) r pred =
  let scalar = compile_scalar r in
  (* The logic mode acts on atoms only (under L2 a comparison over NULL is
     plain false, Libkin-style); the connectives below then operate on
     classical booleans and Kleene's tables coincide with the two-valued
     ones. IS [NOT] NULL and EXISTS are two-valued in both logics. *)
  let atom = Sqlval.Logic_mode.collapse logic in
  (* Both sides of AND/OR are always evaluated: an EXISTS on either side
     counts its evaluation whatever the other side says. *)
  let rec go = function
    | Ptrue -> fun _ -> Truth.True
    | Pfalse -> fun _ -> Truth.False
    | Cmp (op, a, b) ->
      let f = comparison op and a = scalar a and b = scalar b in
      fun env -> atom (f (a env) (b env))
    | Between (a, lo, hi) ->
      let a = scalar a and lo = scalar lo and hi = scalar hi in
      fun env ->
        let v = a env in
        Truth.and_ (atom (Value.ge3 v (lo env))) (atom (Value.le3 v (hi env)))
    | In_list (a, vs) ->
      let a = scalar a in
      let rec any v t = function
        | [] -> t
        | w :: ws -> any v (Truth.or_ t (atom (Value.eq3 v w))) ws
      in
      fun env -> any (a env) Truth.False vs
    | Is_null a ->
      let a = scalar a in
      fun env -> Truth.of_bool (Value.is_null (a env))
    | Is_not_null a ->
      let a = scalar a in
      fun env -> Truth.of_bool (not (Value.is_null (a env)))
    | And (p, q) ->
      let p = go p and q = go q in
      fun env -> Truth.and_ (p env) (q env)
    | Or (p, q) ->
      let p = go p and q = go q in
      fun env -> Truth.or_ (p env) (q env)
    | Not p ->
      let p = go p in
      fun env -> Truth.not_ (p env)
    | Exists q ->
      let e = r.exists q in
      fun env -> Truth.of_bool (e env)
  in
  go pred

let eval_pred_simple ?logic ~lookup_col ~lookup_host pred =
  compile_pred ?logic
    {
      column = (fun a () -> lookup_col a);
      host = lookup_host;
      exists = (fun _ () -> invalid_arg "eval_pred_simple: EXISTS subquery");
    }
    pred ()
