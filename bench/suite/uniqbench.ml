(* uniqbench — the seeded end-to-end benchmark of the optimizer and serve
   paths, with a traced per-layer breakdown (README.md in this directory).

     dune exec bench/suite/uniqbench.exe -- --seed 1        all five workloads
     dune exec bench/suite/uniqbench.exe -- --workload scan_keyed --seed 3 --trace 1
     dune exec bench/suite/uniqbench.exe -- --repeat 3      medians, IQRs, spread flags
     dune exec bench/suite/uniqbench.exe -- --smoke         tiny run of everything, asserted

   With --workload the workload runs in this process and the last line of
   standard output is its JSON result. Without it, every workload runs in
   a child process of its own. BENCHMARK.json (--manifest) names the
   workloads and the metrics a run must report. *)

let workloads = [ "serve_hot"; "serve_cold"; "query_point"; "scan_keyed"; "scan_nonkey" ]

(* ---- the manifest ---- *)

type metric = { name : string; unit : string; bound : float option }

type manifest = {
  m_workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
  run_seconds : float;
}

let load_manifest path =
  let j = Json_in.parse (In_channel.with_open_bin path In_channel.input_all) in
  let metrics key =
    List.map
      (fun m ->
        { name = Json_in.(to_string (member "name" m));
          unit = Json_in.(to_string (member "unit" m));
          bound = (try Some Json_in.(to_float (member "bound" m)) with Json_in.Error _ -> None) })
      Json_in.(to_list (member key j))
  in
  { m_workloads =
      List.map (fun w -> Json_in.(to_string (member "name" w))) Json_in.(to_list (member "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
    run_seconds = Json_in.(to_float (member "run_seconds" j)) }

(* ---- one workload, in this process ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let result_path ~out ~workload ~seed ~traced =
  Filename.concat out (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int traced))

let run_one m ~workload ~seed ~seconds ~traced ~smoke ~out =
  mkdir_p out;
  let report = Report.create () in
  (match workload with
   | "serve_hot" | "serve_cold" ->
     Serve_load.run ~workload ~seed ~seconds ~traced ~smoke ~dir:out report
   | _ ->
     Query_load.run ~workload ~seed ~seconds ~traced
       ~scale:(if smoke then Query_load.smoke else Query_load.full)
       report);
  let wanted = if traced then m.per_layer else m.end_to_end in
  let not_measured = ref [] in
  let values =
    List.map
      (fun (w : metric) ->
        match Hashtbl.find_opt report.Report.metrics w.name with
        | Some (v, unit) when Float.is_finite v -> (w.name, v, unit)
        | Some _ ->
          Report.fail report (w.name ^ " is not finite");
          (w.name, 0., w.unit)
        | None ->
          (* a per-layer metric whose layer this workload never enters
             reads 0; an end-to-end metric must always be measured *)
          if traced then not_measured := w.name :: !not_measured
          else Report.fail report (w.name ^ " was not measured");
          (w.name, 0., w.unit))
      wanted
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-12s %-32s %16.6f %s\n" workload name v unit) values;
  let error_rate =
    Measure.ratio (float_of_int report.Report.failed) (float_of_int report.Report.attempted)
  in
  Printf.printf "%-12s %-32s %16.6f fraction (%d failed of %d attempted)\n" workload "error_rate"
    error_rate report.Report.failed report.Report.attempted;
  List.iter (fun r -> Printf.printf "%-12s failure: %s\n" workload r) report.Report.reasons;
  let open Trace.Json in
  let metric_json (name, v, unit) = (name, Obj [ ("value", Float v); ("unit", String unit) ]) in
  let all_measured =
    Hashtbl.fold (fun name (v, unit) acc -> (name, v, unit) :: acc) report.Report.metrics []
    |> List.sort compare
    |> List.filter (fun (_, v, _) -> Float.is_finite v)
  in
  let header =
    [ ("workload", String workload); ("seed", Int seed); ("seconds", Float seconds);
      ("traced", Bool traced); ("smoke", Bool smoke); ("nproc", Int (Measure.nproc ()));
      ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
      ("ocaml_version", String Sys.ocaml_version); ("commit", String (Measure.commit ())) ]
    @ report.Report.header
  in
  let file =
    Obj
      (header
      @ [ ("attempted", Int report.Report.attempted); ("failed", Int report.Report.failed);
          ("error_rate", Float error_rate);
          ("failures", List (List.map (fun r -> String r) report.Report.reasons));
          ("not_measured", List (List.map (fun n -> String n) !not_measured));
          ("metrics", Obj (List.map metric_json all_measured)) ])
  in
  Out_channel.with_open_bin (result_path ~out ~workload ~seed ~traced) (fun oc ->
      output_string oc (to_string_pretty file));
  if traced then
    Out_channel.with_open_bin
      (Filename.concat out (Printf.sprintf "%s-seed%d-spans.json" workload seed))
      (fun oc -> output_string oc (to_string (Spans.to_json ())));
  let correct = report.Report.failed = 0 in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool correct); ("attempted", Int report.Report.attempted);
            ("failed", Int report.Report.failed);
            ("metrics", Obj (List.map metric_json values)) ]));
  if correct then 0 else 1

(* ---- several workloads, each in a child process ---- *)

type child = {
  c_workload : string;
  c_seed : int;
  c_traced : bool;
  c_ok : bool;  (* exited 0 with a correct result *)
  c_metrics : (string * float * string) list;
}

let run_child ~manifest ~workload ~seed ~seconds ~traced ~smoke ~out =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0"); "--out"; out;
      "--manifest"; manifest ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       (* the smoke run prints only its verdict *)
       if !last <> "" && not smoke then print_endline !last;
       last := line
     done
   with End_of_file -> ());
  flush stdout;
  let status = Unix.close_process_in ic in
  let parsed =
    try
      let j = Json_in.parse !last in
      let metrics =
        match Json_in.member "metrics" j with
        | Trace.Json.Obj kvs ->
          List.map
            (fun (name, v) ->
              (name, Json_in.(to_float (member "value" v)), Json_in.(to_string (member "unit" v))))
            kvs
        | _ -> []
      in
      Some (Json_in.(to_bool (member "correct" j)), metrics)
    with Json_in.Error _ -> None
  in
  match status, parsed with
  | Unix.WEXITED 0, Some (true, metrics) ->
    { c_workload = workload; c_seed = seed; c_traced = traced; c_ok = true; c_metrics = metrics }
  | _, p ->
    Printf.printf "%-12s FAILED (seed %d, trace %b)%s\n%!" workload seed traced
      (match p with None -> ": no result line" | Some _ -> "");
    { c_workload = workload; c_seed = seed; c_traced = traced; c_ok = false;
      c_metrics = (match p with Some (_, ms) -> ms | None -> []) }

(* Rounds of every workload, interleaved (round r uses seed + r). *)
let run_rounds m ~manifest ~seed ~rounds ~seconds ~traces ~smoke ~out =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun traced ->
          List.map
            (fun workload ->
              run_child ~manifest ~workload ~seed:(seed + r) ~seconds ~traced ~smoke ~out)
            m.m_workloads)
        traces)
    (List.init rounds Fun.id)

(* --repeat: median and interquartile spread of each end-to-end metric,
   flagged where the spread exceeds the metric's bound. *)
let summarize m children ~out =
  let rows =
    List.concat_map
      (fun workload ->
        List.map
          (fun (metric : metric) ->
            let values =
              List.filter_map
                (fun c ->
                  if c.c_workload = workload && not c.c_traced then
                    List.find_map
                      (fun (n, v, _) -> if n = metric.name then Some v else None)
                      c.c_metrics
                  else None)
                children
            in
            let med = Measure.median values in
            let q1, q3 = Measure.quartiles values in
            let spread = Measure.ratio (q3 -. q1) med in
            let bound = Option.value metric.bound ~default:infinity in
            let flagged = spread > bound in
            Printf.printf "%-12s %-22s median %14.6f %-6s IQR/median %6.3f bound %5.2f%s\n"
              workload metric.name med metric.unit spread bound
              (if flagged then "  SPREAD EXCEEDS BOUND" else "");
            Trace.Json.(
              Obj
                [ ("workload", String workload); ("metric", String metric.name);
                  ("unit", String metric.unit);
                  ("values", List (List.map (fun v -> Float v) values));
                  ("median", Float med); ("q1", Float q1); ("q3", Float q3);
                  ("iqr_over_median", Float spread); ("bound", Float bound);
                  ("flagged", Bool flagged) ]))
          m.end_to_end)
      m.m_workloads
  in
  Out_channel.with_open_bin (Filename.concat out "repeat.json") (fun oc ->
      output_string oc (Trace.Json.to_string_pretty (Trace.Json.List rows)))

(* --smoke: every workload, the server included, at a tiny scale; every
   declared metric present, finite and in its declared unit, every
   per-layer metric measured by some workload, and no failed output. *)
let smoke_checks m children ~out =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.sort compare m.m_workloads <> List.sort compare workloads then
    problem "BENCHMARK.json workloads differ from the benchmark's";
  List.iter
    (fun c ->
      if not c.c_ok then problem "%s (trace %b) failed" c.c_workload c.c_traced;
      List.iter
        (fun (w : metric) ->
          match List.find_opt (fun (n, _, _) -> n = w.name) c.c_metrics with
          | None -> problem "%s: %s missing" c.c_workload w.name
          | Some (_, v, unit) ->
            if not (Float.is_finite v) then problem "%s: %s not finite" c.c_workload w.name;
            if unit <> w.unit then
              problem "%s: %s in %s, declared %s" c.c_workload w.name unit w.unit)
        (if c.c_traced then m.per_layer else m.end_to_end))
    children;
  let unmeasured_everywhere =
    List.fold_left
      (fun acc c ->
        if not c.c_traced then acc
        else
          let path = result_path ~out ~workload:c.c_workload ~seed:c.c_seed ~traced:true in
          match Json_in.parse (In_channel.with_open_bin path In_channel.input_all) with
          | j ->
            let here = List.map Json_in.to_string Json_in.(to_list (member "not_measured" j)) in
            List.filter (fun n -> List.mem n here) acc
          | exception (Sys_error _ | Json_in.Error _) -> acc)
      (List.map (fun (w : metric) -> w.name) m.per_layer)
      children
  in
  List.iter (problem "per-layer metric %s is measured by no workload") unmeasured_everywhere;
  List.iter (fun p -> Printf.printf "smoke: %s\n" p) (List.rev !problems);
  if !problems = [] then begin
    Printf.printf "smoke: ok (%d runs)\n" (List.length children);
    0
  end
  else 1

(* ---- command line ---- *)

let () =
  let workload = ref None
  and seed = ref 1
  and seconds = ref None
  and trace = ref 0
  and out = ref "_build/uniqbench"
  and repeat = ref 0
  and smoke = ref false
  and manifest = ref "BENCHMARK.json" in
  let specs =
    [ ("--workload", Arg.String (fun w -> workload := Some w),
       "NAME  run one workload in this process (" ^ String.concat ", " workloads ^ ")");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s),
       "S  measured seconds per run (default: run_seconds of the manifest)");
      ("--trace", Arg.Set_int trace, "0|1  1 reports the per-layer metrics of a traced run");
      ("--traced", Arg.Unit (fun () -> trace := 1), "  same as --trace 1");
      ("--out", Arg.Set_string out, "DIR  result files go here (default _build/uniqbench)");
      ("--repeat", Arg.Set_int repeat, "K  run every workload K times, interleaved; report spreads");
      ("--smoke", Arg.Set smoke, "  every workload at about 1/50 size, with assertions");
      ("--manifest", Arg.Set_string manifest, "FILE  the benchmark manifest (default BENCHMARK.json)") ]
  in
  let usage = "uniqbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace expects 0 or 1"; exit 2);
  let m = load_manifest !manifest in
  let traced = !trace = 1 in
  let code =
    match !workload with
    | Some w when List.mem w workloads ->
      let seconds = Option.value !seconds ~default:m.run_seconds in
      run_one m ~workload:w ~seed:!seed ~seconds ~traced ~smoke:!smoke ~out:!out
    | Some w ->
      Printf.eprintf "unknown workload %s (expected one of %s)\n" w (String.concat ", " workloads);
      2
    | None ->
      mkdir_p !out;
      if !smoke then
        let seconds = Option.value !seconds ~default:0.3 in
        let children =
          run_rounds m ~manifest:!manifest ~seed:!seed ~rounds:1 ~seconds ~traces:[ false; true ]
            ~smoke:true ~out:!out
        in
        smoke_checks m children ~out:!out
      else
        let seconds = Option.value !seconds ~default:m.run_seconds in
        let rounds = max 1 !repeat in
        let children =
          run_rounds m ~manifest:!manifest ~seed:!seed ~rounds ~seconds ~traces:[ traced ]
            ~smoke:false ~out:!out
        in
        if !repeat > 0 && not traced then summarize m children ~out:!out;
        if List.for_all (fun c -> c.c_ok) children then 0 else 1
  in
  exit code
