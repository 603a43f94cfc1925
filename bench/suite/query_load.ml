(* Query workloads: one in-process client runs the full pipeline
   (parse -> plan -> execute) in a closed loop over a seeded instance
   list and checks every result against a certificate-free reference. *)

module Value = Sqlval.Value

type instance = {
  cls : string;
  sql : string;
  hosts : (string * Value.t) list;
  cat : Catalog.t;
  db : Engine.Database.t;
  expect_rows : int option;  (* analytic cardinality, when known *)
}

(* ---- result digests ---- *)

(* Numerics hash through their float form: the engine treats [Int 1] and
   [Float 1.0] as equal, and a rewrite may turn one into the other. *)
let hash_value = function
  | Value.Int i -> Hashtbl.hash (Float.of_int i)
  | v -> Hashtbl.hash v

let mix h =
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

type digest = { rows : int; bag : int; keys : int }

(* [bag] ignores row order; [keys] is an ordered hash of the ORDER BY
   columns alone, which a correct plan must reproduce exactly even where
   ties leave whole rows free to permute. *)
let digest order_keys (r : Engine.Relation.t) =
  let bag = ref 0 and keys = ref 0 and rows = ref 0 in
  List.iter
    (fun row ->
      incr rows;
      bag := !bag + mix (Array.fold_left (fun h v -> (h * 1_000_003) + hash_value v) 17 row);
      if order_keys <> [] then
        keys :=
          mix (List.fold_left (fun h i -> (h * 1_000_003) + hash_value row.(i)) !keys order_keys))
    r.Engine.Relation.rows;
  { rows = !rows; bag = !bag; keys = !keys }

(* ---- workloads ---- *)

type scale = { suppliers : int; rows : int; setup_repeats : int }

let full = { suppliers = 2_000; rows = 200_000; setup_repeats = 5 }
let smoke = { suppliers = 40; rows = 4_000; setup_repeats = 1 }

let colors = Workload.Paper_schema.colors
let cities = Workload.Paper_schema.cities
let agent_cities = [ "Ottawa"; "Hull"; "Toronto"; "Montreal" ]

let supplied_parts_view =
  "CREATE VIEW SUPPLIED_PARTS AS SELECT S.SNO, SNAME, P.PNO, PNAME, COLOR \
   FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO"

(* Twelve classes over the paper's supplier schema; each takes an RNG and
   returns one seeded literal variant (SQL and host bindings). *)
let point_classes ~suppliers =
  let pick rng xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let no_hosts sql = (sql, [], None) in
  [ ( "key_lookup",
      fun rng ->
        ( Printf.sprintf "SELECT S.SNO, S.SNAME, S.SCITY FROM SUPPLIER S WHERE S.SNO = %d"
            (1 + Random.State.int rng suppliers),
          [],
          Some 1 ) );
    ( "ex1_distinct",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
              WHERE S.SNO = P.SNO AND P.COLOR = '%s'"
             (pick rng colors)) );
    ( "ex2_distinct",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
              WHERE S.SNO = P.SNO AND P.COLOR = '%s'"
             (pick rng colors)) );
    ( "ex7_exists",
      fun rng ->
        ( "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = \
           :SUPPLIER_NAME AND EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO \
           AND P.PNO = :PART_NO)",
          [ ("SUPPLIER_NAME",
             Value.String (Printf.sprintf "SUPPLIER-%d" (Random.State.int rng 25)));
            ("PART_NO", Value.Int (1 + Random.State.int rng 5)) ],
          None ) );
    ( "ex8_exists",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * \
              FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = '%s')"
             (pick rng colors)) );
    ( "ex9_intersect",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = '%s' INTERSECT \
              SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = '%s' OR A.ACITY = '%s'"
             (pick rng cities) (pick rng agent_cities) (pick rng agent_cities)) );
    ( "x1_group",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT P.SNO, P.PNO, COUNT(*), MAX(P.OEM_PNO) FROM PARTS P WHERE \
              P.COLOR = '%s' GROUP BY P.SNO, P.PNO"
             (pick rng colors)) );
    ( "x2_join_elim",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO \
              AND P.COLOR = '%s'"
             (pick rng colors)) );
    ( "x3_prune",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO BETWEEN 1 AND \
              999999 AND S.SNO >= 1 AND S.SNAME = 'SUPPLIER-%d'"
             (Random.State.int rng 25)) );
    ( "view_join",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT DISTINCT V.SNO, V.PNO, V.PNAME FROM SUPPLIED_PARTS V WHERE \
              V.COLOR = '%s'"
             (pick rng colors)) );
    ( "key_order_parts",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT P.SNO, P.PNO, P.PNAME FROM PARTS P WHERE P.COLOR = '%s' \
              ORDER BY P.SNO, P.PNO"
             (pick rng colors)) );
    ( "color_count",
      fun rng ->
        no_hosts
          (Printf.sprintf
             "SELECT P.COLOR, COUNT(*) FROM PARTS P WHERE P.PNO <> %d GROUP BY P.COLOR"
             (1 + Random.State.int rng 5)) ) ]

let variants_per_class = 8

let key_group_query = "SELECT B.K, COUNT(*) FROM BULK B GROUP BY B.K"
let grp_group_query = "SELECT B.GRP, COUNT(*) FROM BULK B GROUP BY B.GRP"
let attr_join_query = "SELECT F.ID, D1.K FROM DIM1 D1, FACT F WHERE D1.ATTR = F.FK1"
let fk_distinct_query = "SELECT DISTINCT F.FK1, F.FK2 FROM FACT F"

type kind = Point | Keyed | Nonkey

let kind_of = function
  | "query_point" -> Point
  | "scan_keyed" -> Keyed
  | "scan_nonkey" -> Nonkey
  | w -> invalid_arg ("not a query workload: " ^ w)

(* Every class name, in report order. *)
let class_names =
  List.map fst (point_classes ~suppliers:1)
  @ [ "key_distinct"; "key_order"; "star_join"; "pair_merge"; "key_group";
      "grp_distinct"; "grp_order"; "attr_join"; "grp_group"; "fk_distinct" ]

(* Build the databases a workload needs and its instance list, timing
   generation and validation separately. *)
let build kind scale seed report =
  let gen_s = ref 0. and val_s = ref 0. in
  let timed acc f =
    let t0 = Measure.now () in
    let x = f () in
    acc := !acc +. (Measure.now () -. t0);
    x
  in
  let gen f = timed gen_s f in
  let validate name db =
    match timed val_s (fun () -> Engine.Database.validate db) with
    | [] -> ()
    | v :: _ ->
      Report.fail report
        (Format.asprintf "%s instance violates a constraint: %a" name
           Engine.Database.pp_violation v)
  in
  let instances =
    match kind with
    | Point ->
      let db =
        gen (fun () ->
            Workload.Generator.supplier_db ~seed ~suppliers:scale.suppliers
              ~parts_per_supplier:5 ())
      in
      validate "supplier" db;
      let cat =
        Uniqueness.Views.register_ddl (Engine.Database.catalog db) supplied_parts_view
      in
      let rng = Random.State.make [| seed; 0x51 |] in
      List.concat_map
        (fun (cls, variant) ->
          List.init variants_per_class (fun _ ->
              let sql, hosts, expect_rows = variant rng in
              { cls; sql; hosts; cat; db; expect_rows }))
        (point_classes ~suppliers:scale.suppliers)
    | Keyed | Nonkey ->
      let rows = scale.rows in
      let cfg =
        { Workload.Datagen.seed; rows; distinct_fraction = 0.01;
          order = Workload.Datagen.Key_order }
      in
      let groups = Some (Workload.Datagen.groups cfg) in
      let bulk = gen (fun () -> Workload.Datagen.generate cfg) in
      validate "bulk" bulk;
      let star = gen (fun () -> Workload.Datagen.star_db ~seed ~rows ()) in
      validate "star" star;
      let on db cls sql expect_rows =
        { cls; sql; hosts = []; cat = Engine.Database.catalog db; db; expect_rows }
      in
      if kind = Keyed then begin
        let pair = gen (fun () -> Workload.Datagen.pair_db ~seed ~rows ()) in
        validate "pair" pair;
        [ on bulk "key_distinct" Workload.Datagen.key_query (Some rows);
          on bulk "key_order" Workload.Datagen.order_key_query (Some rows);
          on star "star_join" Workload.Datagen.star_query (Some rows);
          on pair "pair_merge" Workload.Datagen.pair_query (Some rows);
          on bulk "key_group" key_group_query (Some rows) ]
      end
      else
        [ on bulk "grp_distinct" Workload.Datagen.group_query groups;
          on bulk "grp_order" Workload.Datagen.order_group_query (Some rows);
          on star "attr_join" attr_join_query None;
          on bulk "grp_group" grp_group_query groups;
          on star "fk_distinct" fk_distinct_query None ]
  in
  (Array.of_list instances, !gen_s, !val_s)

(* Set up [repeats] times (dropping each instance set before the next)
   and keep the last; set-up times are the fastest quartile. *)
let setup kind scale seed report =
  let rec go i acc =
    Gc.compact ();
    let t0 = Measure.now () in
    let instances, g, v = build kind scale seed report in
    let sample = (Measure.now () -. t0, g, v) in
    if i + 1 < scale.setup_repeats then go (i + 1) (sample :: acc)
    else (instances, sample :: acc)
  in
  let instances, samples = go 0 [] in
  let fastest f = Measure.low_quartile (List.map f samples) in
  Report.set report "setup_s" "s" (fastest (fun (s, _, _) -> s));
  Report.set report "workload.generate_s" "s" (fastest (fun (_, g, _) -> g));
  Report.set report "engine.validate_s" "s" (fastest (fun (_, _, v) -> v));
  instances

(* ---- the closed loop ---- *)

type expected = { digest : digest; order_keys : int list }

let references instances report =
  Array.map
    (fun i ->
      let r, order_keys = Pipeline.reference i.cat i.db ~hosts:i.hosts i.sql in
      let d = digest order_keys r in
      (match i.expect_rows with
       | Some n when n <> d.rows ->
         Report.fail report
           (Printf.sprintf "%s: reference returned %d rows, expected %d" i.cls d.rows n)
       | _ -> ());
      { digest = d; order_keys })
    instances

type loop_stats = {
  mutable rounds : (string * float) list list;  (* (class, ms) of each full round *)
  mutable busy_s : float;
  mutable completed : int;
}

let check report inst exp result =
  let d = digest exp.order_keys result in
  if d <> exp.digest then
    Report.fail report
      (Printf.sprintf "%s: result differs from the reference (%d rows vs %d): %s"
         inst.cls d.rows exp.digest.rows inst.sql)

(* Run whole rounds of the instances in [order] until [seconds] have
   passed (at least one round). [each] sees every execution's plan. *)
let closed_loop ?(each = fun _ _ -> ()) hook instances expected order ~seconds report =
  let st = { rounds = []; busy_s = 0.; completed = 0 } in
  let n = Array.length order in
  let deadline = Measure.now () +. seconds in
  let round = ref [] in
  let k = ref 0 in
  while !k < n || !k mod n <> 0 || Measure.now () < deadline do
    let idx = order.(!k mod n) in
    let inst = instances.(idx) in
    report.Report.attempted <- report.Report.attempted + 1;
    let go () = Pipeline.run hook inst.cat inst.db ~hosts:inst.hosts inst.sql in
    let t0 = Measure.now () in
    (match if hook == Spans.untraced then go () else Spans.root "query" go with
     | plan, result ->
       let dt = Measure.now () -. t0 in
       st.busy_s <- st.busy_s +. dt;
       st.completed <- st.completed + 1;
       round := (inst.cls, dt *. 1000.) :: !round;
       each !k plan;
       check report inst expected.(idx) result
     | exception e ->
       Report.fail report (Printf.sprintf "%s raised %s" inst.cls (Printexc.to_string e)));
    incr k;
    if !k mod n = 0 then begin
      if !round <> [] then st.rounds <- !round :: st.rounds;
      round := []
    end
  done;
  st

let class_ms cls samples =
  List.filter_map (fun (c, ms) -> if c = cls then Some ms else None) samples

(* Per-round figures, reported at the fastest quartile of the rounds
   (see [Measure.low_quartile]). *)
let report_e2e report st =
  let round_stat f = List.map (fun r -> f (Measure.sorted_of_list (List.map snd r)) r) st.rounds in
  let geomean r =
    List.sort_uniq compare (List.map fst r)
    |> List.map (fun c -> Measure.median (class_ms c r))
    |> Measure.geomean
  in
  Report.set report "throughput_qps" "1/s"
    (Measure.high_quartile
       (round_stat (fun ms _ ->
            Measure.ratio (float_of_int (Array.length ms)) (Array.fold_left ( +. ) 0. ms /. 1000.))));
  Report.set report "latency_p50_ms" "ms"
    (Measure.low_quartile (round_stat (fun ms _ -> Measure.percentile ms 0.5)));
  Report.set report "latency_p90_ms" "ms"
    (Measure.low_quartile (round_stat (fun ms _ -> Measure.percentile ms 0.9)));
  Report.set report "latency_geomean_ms" "ms"
    (Measure.low_quartile (round_stat (fun _ r -> geomean r)))

let engine_counters =
  [ ("engine.rows_scanned", fun s -> s.Engine.Stats.rows_scanned);
    ("engine.join_build_rows", fun s -> s.Engine.Stats.join_build_rows);
    ("engine.join_probe_rows", fun s -> s.Engine.Stats.join_probe_rows);
    ("engine.probe_early_exits", fun s -> s.Engine.Stats.probe_early_exits);
    ("engine.dedup_state_peak", fun s -> s.Engine.Stats.dedup_state_peak);
    ("engine.sorted_rows", fun s -> s.Engine.Stats.sorted_rows);
    ("engine.comparisons", fun s -> s.Engine.Stats.comparisons);
    ("engine.subquery_evals", fun s -> s.Engine.Stats.subquery_evals);
    ("engine.predicate_evals", fun s -> s.Engine.Stats.predicate_evals) ]

let run ~workload ~seed ~seconds ~traced ~scale report =
  let kind = kind_of workload in
  let instances = setup kind scale seed report in
  let expected = references instances report in
  let rng = Random.State.make [| seed; 0x0bde |] in
  let order = Array.init (Array.length instances) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Report.note report "scale"
    (Trace.Json.Obj
       (match kind with
        | Point -> [ ("suppliers", Trace.Json.Int scale.suppliers); ("parts_per_supplier", Trace.Json.Int 5) ]
        | Keyed | Nonkey -> [ ("rows", Trace.Json.Int scale.rows) ]));
  Report.note report "instances" (Trace.Json.Int (Array.length instances));
  (* warm-up round: lazy set-up and first-touch costs stay out of the timing *)
  ignore (closed_loop Spans.untraced instances expected order ~seconds:0. report);
  let untraced_s = if traced then seconds /. 2. else seconds in
  Gc.compact ();
  let st = closed_loop Spans.untraced instances expected order ~seconds:untraced_s report in
  report_e2e report st;
  if traced then begin
    let all = List.concat st.rounds in
    List.iter
      (fun c ->
        match class_ms c all with
        | [] -> ()
        | ms -> Report.set report (Printf.sprintf "class.%s.p50_ms" c) "ms" (Measure.median ms))
      class_names;
    let n = Array.length instances in
    let round = Engine.Stats.create () in
    let certificates = ref 0 in
    let each k (plan : Pipeline.plan) =
      if k < n then begin
        Engine.Stats.add round plan.Pipeline.config.Engine.Exec.stats;
        certificates := !certificates + Pipeline.certificates plan
      end
    in
    Spans.reset ();
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let tst =
      closed_loop ~each Spans.traced instances expected order ~seconds:(seconds /. 2.) report
    in
    let g1 = Gc.quick_stat () in
    let ops = float_of_int (max 1 tst.completed) in
    let per_op_us name = Spans.mean_self_s name *. 1e6 in
    List.iter
      (fun name -> Report.set report (name ^ "_us") "us" (per_op_us name))
      [ "sql.parse"; "uniqueness.views"; "optimizer.planner"; "optimizer.distinct_plan";
        "optimizer.join_plan"; "optimizer.order_plan"; "relalg.translate"; "engine.compile" ];
    Report.set report "engine.execute_ms" "ms" (Spans.mean_self_s "engine.execute" *. 1e3);
    Report.set report "optimizer.certificates" "count" (float_of_int !certificates);
    List.iter
      (fun (name, field) -> Report.set report name "count" (float_of_int (field round)))
      engine_counters;
    Report.gc report g0 g1 ~ops;
    Report.set report "trace.coverage_pct" "%" (Spans.coverage_pct "query");
    Report.set report "trace.overhead_pct" "%"
      (100. *. (Measure.ratio (tst.busy_s /. ops) (st.busy_s /. float_of_int (max 1 st.completed)) -. 1.))
  end;
  Report.set report "peak_rss_mb" "MB" (Measure.peak_rss_mb ())
