type config = {
  seed : int;
  count : int;
  instances : int;
  rows : int;
  exact_cells : int;
  shrink : bool;
  use_cache : bool;
  nested_or : float;
  oracles : string list;
}

let default =
  { seed = 7;
    count = 1000;
    instances = 3;
    rows = 6;
    exact_cells = 100_000;
    shrink = true;
    use_cache = false;
    nested_or = 0.0;
    oracles = [] }

type discrepancy = {
  case_index : int;
  oracle : string;
  detail : string;
  case : Case.t;
}

type report = {
  config : config;
  cases : int;
  skipped_cases : int;
  per_oracle : (string * (int * int * int)) list;
  skip_reasons : ((string * string) * int) list;
  discrepancies : discrepancy list;
}

(* Collapse digit runs so counted skip reasons aggregate across cases
   ("search space too large (51200)" and "(204800)" are one reason). *)
let normalize_reason r =
  let buf = Buffer.create (String.length r) in
  let in_digits = ref false in
  String.iter
    (fun ch ->
      if ch >= '0' && ch <= '9' then begin
        if not !in_digits then Buffer.add_char buf 'N';
        in_digits := true
      end
      else begin
        in_digits := false;
        Buffer.add_char buf ch
      end)
    r;
  Buffer.contents buf

let replay ?max_cells ?only c = Oracle.all ?max_cells ?only c

(* does [oracle] still fail on [c]? — the predicate shrinking preserves *)
let oracle_fails ~max_cells oracle c =
  List.exists
    (fun (f : Oracle.finding) ->
      f.Oracle.oracle = oracle
      && match f.Oracle.verdict with
         | Oracle.Fail _ -> true
         | Oracle.Pass | Oracle.Skip _ -> false)
    (Oracle.all ~max_cells c)

let run ?(log = fun _ -> ()) ?pool config =
  (* One shared cache (and the closure memo) for the whole campaign when
     requested: the report must come out bit-identical either way, which the
     cache smoke test asserts by diffing the two. *)
  let cache =
    if config.use_cache then Some (Analysis_cache.create ()) else None
  in
  (* Worker domains reach the shared caches only inside an epoch — even
     without [--cache], since the cache oracle turns the closure memo on
     for its own runs. *)
  let epoch f =
    match cache with
    | Some c -> Analysis_cache.epoch c f
    | None -> Cache.Runtime.epoch f
  in
  Cache.Runtime.with_enabled config.use_cache @@ fun () ->
  let rng = Random.State.make [| config.seed |] in
  let tally : (string, int * int * int) Hashtbl.t = Hashtbl.create 32 in
  let bump name f =
    let p, s, x = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tally name) in
    Hashtbl.replace tally name (f (p, s, x))
  in
  let discrepancies = ref [] in
  let skipped_cases = ref 0 in
  let skip_tally : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  (* Judging a case draws no randomness, so it can run on any domain; only
     generation touches [rng] and stays on this one. *)
  let judge c =
    if not (Shrink.valid c) then `Invalid
    else
      `Findings
        (Oracle.all ~max_cells:config.exact_cells ?cache ~only:config.oracles
           c)
  in
  let block_size = match pool with None -> 1 | Some p -> 32 * Parallel.Pool.jobs p in
  let next = ref 0 in
  while !next < config.count do
    let n = min block_size (config.count - !next) in
    (* Generate the block in index order off the single RNG stream (an
       explicit loop: [List.init]'s evaluation order is unspecified), so
       the cases — hence the report — are bit-identical at any job count. *)
    let block = ref [] in
    for i = !next to !next + n - 1 do
      log i;
      let c =
        Case.generate ~rng ~instances:config.instances ~rows:config.rows
          ~nested_or:config.nested_or ()
      in
      block := (i, c) :: !block
    done;
    let judged =
      let f (i, c) = (i, c, judge c) in
      let block = List.rev !block in
      match pool with
      | None -> List.map f block
      | Some p -> epoch (fun () -> Parallel.Pool.map p f block)
    in
    (* Merge in submission order; shrinking replays oracles, so it runs here
       on the submitting domain, not inside the judged block. *)
    List.iter
      (fun (i, c, outcome) ->
        match outcome with
        | `Invalid -> incr skipped_cases
        | `Findings findings ->
          List.iter
            (fun (f : Oracle.finding) ->
              match f.Oracle.verdict with
              | Oracle.Pass ->
                bump f.Oracle.oracle (fun (p, s, x) -> (p + 1, s, x))
              | Oracle.Skip reason ->
                bump f.Oracle.oracle (fun (p, s, x) -> (p, s + 1, x));
                let key = (f.Oracle.oracle, normalize_reason reason) in
                Hashtbl.replace skip_tally key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt skip_tally key))
              | Oracle.Fail detail ->
                bump f.Oracle.oracle (fun (p, s, x) -> (p, s, x + 1));
                let case =
                  if config.shrink then
                    Shrink.minimize
                      ~fails:
                        (oracle_fails ~max_cells:config.exact_cells
                           f.Oracle.oracle)
                      c
                  else c
                in
                discrepancies :=
                  { case_index = i; oracle = f.Oracle.oracle; detail; case }
                  :: !discrepancies)
            findings)
      judged;
    next := !next + n
  done;
  let per_oracle =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let skip_reasons =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) skip_tally []
    |> List.sort (fun ((o1, r1), _) ((o2, r2), _) ->
           match String.compare o1 o2 with
           | 0 -> String.compare r1 r2
           | c -> c)
  in
  { config;
    cases = config.count;
    skipped_cases = !skipped_cases;
    per_oracle;
    skip_reasons;
    discrepancies = List.rev !discrepancies }

let pp_report ppf r =
  Format.fprintf ppf "fuzz campaign: seed %d, %d cases (%d instances each, <=%d rows)@."
    r.config.seed r.cases r.config.instances r.config.rows;
  if r.skipped_cases > 0 then
    Format.fprintf ppf "invalid generated cases (generator bug): %d@."
      r.skipped_cases;
  Format.fprintf ppf "%-28s %8s %8s %8s@." "oracle" "pass" "skip" "fail";
  List.iter
    (fun (name, (p, s, x)) ->
      Format.fprintf ppf "%-28s %8d %8d %8d@." name p s x)
    r.per_oracle;
  if r.skip_reasons <> [] then begin
    Format.fprintf ppf "skips by reason:@.";
    List.iter
      (fun ((oracle, reason), n) ->
        Format.fprintf ppf "  %6d  %-24s %s@." n oracle reason)
      r.skip_reasons
  end;
  let total_fail =
    List.fold_left (fun acc (_, (_, _, x)) -> acc + x) 0 r.per_oracle
  in
  if total_fail = 0 then Format.fprintf ppf "no discrepancies@."
  else begin
    Format.fprintf ppf "%d discrepancies:@." total_fail;
    List.iter
      (fun d ->
        Format.fprintf ppf "@.--- case %d, oracle %s@.%s@.%a" d.case_index
          d.oracle d.detail Case.pp d.case)
      r.discrepancies
  end
