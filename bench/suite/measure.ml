(* Clock, order statistics and process readings shared by every workload. *)

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks; [sorted] must be sorted. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 0.5

(* A run reports the fastest quartile of its sub-measurements (rounds,
   windows, chunks): interference from other tenants of the host slows
   parts of a run and never speeds one up, while a change to the code
   moves every part. *)
let low_quartile xs = percentile (sorted_of_list xs) 0.25
let high_quartile xs = percentile (sorted_of_list xs) 0.75

(* First and third quartile as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so spreads printed
   here match what a reader recomputes from the raw values. *)
let quartiles xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then (0., 0.)
  else if n = 1 then (a.(0), a.(0))
  else
    let at i =
      let m = float_of_int ((n + 1) * i) /. 4. in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))
    in
    (at 1, at 3)

let geomean xs =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> 0.
  | ys ->
    exp (List.fold_left (fun acc y -> acc +. log y) 0. ys
         /. float_of_int (List.length ys))

let ratio num den = if den = 0. then 0. else num /. den

(* ---- /proc readings ---- *)

let status_field pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = field ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  match status_field pid "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.
    | [] -> 0.)
  | None -> 0.

(* CPUs this process may run on, as nproc counts them. *)
let nproc () =
  match status_field "self" "Cpus_allowed_list" with
  | None -> 1
  | Some list ->
    String.split_on_char ',' list
    |> List.fold_left
         (fun acc range ->
           match String.split_on_char '-' (String.trim range) with
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | [ _ ] -> acc + 1
           | _ -> acc)
         0

(* The checked-out commit, read from .git without running git; "unknown"
   outside a repository (the benchmark also runs from plain exports). *)
let commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some sha -> sha
    | None -> (
      match read ".git/packed-refs" with
      | None -> "unknown"
      | Some packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ sha; r ] when r = ref_ -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown"))
  | Some sha -> sha
