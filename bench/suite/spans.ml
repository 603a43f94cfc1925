(* In-memory spans for the traced run. Each span records its name, start,
   end, parent and request id; a layer's self time is its duration minus
   the time its child spans cover. Aggregates cover every span; the raw
   spans are kept up to a cap and written out when the run ends. *)

type span = {
  id : int;
  name : string;
  request : int;
  parent : int;  (* -1 for a request's root span *)
  start : float;
  stop : float;
}

type agg = { mutable count : int; mutable self_s : float; mutable total_s : float }

type frame = { f_id : int; f_name : string; f_start : float; mutable child_s : float }

let max_kept = 20_000
let kept : span list ref = ref []
let n_kept = ref 0
let next_id = ref 0
let request = ref 0
let stack : frame list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

let reset () =
  kept := [];
  n_kept := 0;
  next_id := 0;
  request := 0;
  stack := [];
  Hashtbl.reset aggs

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a = { count = 0; self_s = 0.; total_s = 0. } in
    Hashtbl.add aggs name a;
    a

let close frame stop =
  let dur = stop -. frame.f_start in
  let parent =
    match !stack with
    | p :: _ ->
      p.child_s <- p.child_s +. dur;
      p.f_id
    | [] -> -1
  in
  let a = agg frame.f_name in
  a.count <- a.count + 1;
  a.self_s <- a.self_s +. (dur -. frame.child_s);
  a.total_s <- a.total_s +. dur;
  if !n_kept < max_kept then begin
    kept :=
      { id = frame.f_id; name = frame.f_name; request = !request; parent;
        start = frame.f_start; stop }
      :: !kept;
    incr n_kept
  end

let with_span name f =
  let frame = { f_id = !next_id; f_name = name; f_start = Measure.now (); child_s = 0. } in
  incr next_id;
  stack := frame :: !stack;
  let finish () =
    stack := List.tl !stack;
    close frame (Measure.now ())
  in
  match f () with
  | x -> finish (); x
  | exception e -> finish (); raise e

(* The span hook the pipelines take; [untraced] is physically distinct so
   callers can pick the plain public entry point when nothing records. *)
type hook = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }
let traced = { span = with_span }

(* [root name f] — one traced request: a fresh request id and a root span. *)
let root name f =
  incr request;
  with_span name f

let mean_self_s name =
  match Hashtbl.find_opt aggs name with
  | Some a when a.count > 0 -> a.self_s /. float_of_int a.count
  | _ -> 0.

let count name =
  match Hashtbl.find_opt aggs name with Some a -> a.count | None -> 0

(* Share of root-span time the layer spans under it cover, in percent. *)
let coverage_pct root_name =
  match Hashtbl.find_opt aggs root_name with
  | Some a when a.total_s > 0. -> 100. *. (1. -. (a.self_s /. a.total_s))
  | _ -> 0.

let to_json () =
  let open Trace.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [ ("id", Int s.id); ("name", String s.name); ("request", Int s.request);
             ("parent", Int s.parent); ("start", Float s.start);
             ("end", Float s.stop) ])
       !kept)
