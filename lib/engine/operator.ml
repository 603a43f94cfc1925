type t = {
  schema : Schema.Relschema.t;
  order : Schema.Attr.t list;
  next : unit -> Relation.row option;
  close : unit -> unit;
}

let schema t = t.schema
let order t = t.order
let next t = t.next ()
let close t = t.close ()

let no_op () = ()

let of_lazy ?(order = []) ?(tick = no_op) schema produce =
  (* Materialization is deferred to the first [next] so that building a
     pipeline never runs it (the planner compiles plans purely to inspect
     order provenance). *)
  let produced = ref false and cursor = ref [] in
  {
    schema;
    order;
    next =
      (fun () ->
        if not !produced then begin
          cursor := produce ();
          produced := true
        end;
        match !cursor with
        | [] -> None
        | r :: rest ->
          cursor := rest;
          tick ();
          Some r);
    close = (fun () -> produced := true; cursor := []);
  }

let of_rows ?order ?tick schema rows = of_lazy ?order ?tick schema (fun () -> rows)

(* The one drain. Rows are read in order into fixed-size chunk arrays,
   each full chunk consed onto the older ones; at end of stream the chunks
   are unrolled back to front, so the answer list is built once, in one
   burst of young cells, and while the stream runs the drain holds about
   one word per row. (Building the list front to back with
   [@tail_mod_cons] instead leaves promoted cells pointing at young ones,
   which the remembered set keeps alive after the answer is dropped.)
   Checks every row against the schema's arity, as [Relation.make] does. *)
let chunk_size = 128

let to_rows op =
  let arity = Schema.Relschema.arity op.schema in
  let rec fill chunk i full =
    if i = chunk_size then fill (Array.make chunk_size [||]) 0 (chunk :: full)
    else
      match op.next () with
      | Some r ->
        if Array.length r <> arity then
          invalid_arg
            (Printf.sprintf "Operator.to_rows: row arity %d, schema arity %d"
               (Array.length r) arity);
        chunk.(i) <- r;
        fill chunk (i + 1) full
      | None -> (chunk, i, full)
  in
  let last, n, full = fill (Array.make chunk_size [||]) 0 [] in
  op.close ();
  let rec unroll chunk i acc =
    if i < 0 then acc else unroll chunk (i - 1) (chunk.(i) :: acc)
  in
  List.fold_left
    (fun acc chunk -> unroll chunk (chunk_size - 1) acc)
    (unroll last (n - 1) [])
    full

let filter pred op =
  let rec pull () =
    match op.next () with
    | None -> None
    | Some r as row -> if pred r then row else pull ()
  in
  { op with next = pull }

let map ?(order = []) schema f op =
  {
    schema;
    order;
    next = (fun () -> Option.map f (op.next ()));
    close = op.close;
  }

let product ?(tick = no_op) left right =
  let schema = Schema.Relschema.product left.schema right.schema in
  (* Block nested loop: the right input is drained once into a buffer, then
     replayed per left row, so a streaming right child is only evaluated
     once. Output inherits the left order — for a fixed left row the block
     of pairs is contiguous, which is exactly what lexicographic order on
     left attributes requires. *)
  let buffer = ref None in
  let right_rows () =
    match !buffer with
    | Some rows -> rows
    | None ->
      let rows = to_rows right in
      buffer := Some rows;
      rows
  in
  let current = ref None in
  let pending = ref [] in
  let rec pull () =
    match !pending with
    | y :: rest ->
      pending := rest;
      (match !current with
       | Some x ->
         tick ();
         Some (Array.append x y)
       | None -> assert false)
    | [] ->
      (match left.next () with
       | None -> None
       | Some x ->
         current := Some x;
         pending := right_rows ();
         pull ())
  in
  {
    schema;
    order = left.order;
    next = pull;
    close =
      (fun () ->
        left.close ();
        right.close ();
        buffer := Some [];
        current := None;
        pending := []);
  }

(* Join keys follow WHERE-equality semantics: a NULL in any key column
   means the row can match nothing (unknown, not equal), so it is dropped
   from both the build table and the probe. [semi_join ~null_equal:true]
   switches to the null-comparison total order used by set operations.
   The build side is drained into [add] exactly once, on the first probe
   pull, so compiling the pipeline stays pure. *)
let drain_build ~stats ~null_equal key build add =
  let rec go () =
    match build.next () with
    | None -> ()
    | Some row ->
      stats.Stats.join_build_rows <- stats.Stats.join_build_rows + 1;
      if null_equal || not (Relation.has_null_at key row) then add row;
      go ()
  in
  go ()

let hash_join ?(tick = no_op) ~stats ?(unique_build = false) ~probe_key
    ~build_key probe build =
  let schema = Schema.Relschema.product probe.schema build.schema in
  (* Build rows are grouped by key id and replayed in build order. Unique
     mode keeps only each key's first row (the planner certified the build
     join columns cover a candidate key, so no key has a second) and each
     matching probe early-exits with it. *)
  let probe_key = Array.of_list probe_key
  and build_key = Array.of_list build_key in
  let drain = drain_build ~stats ~null_equal:false build_key build in
  let table =
    ref
      (lazy
        (if unique_build then begin
           stats.Stats.unique_builds <- stats.Stats.unique_builds + 1;
           let ids = Relation.Keyed.create build_key in
           drain (fun row -> ignore (Relation.Keyed.find_or_add ids row));
           (* no runs: a key's one row is its first *)
           { Relation.Keyed.ids; starts = [||]; rows = [||] }
         end
         else Relation.Keyed.group build_key drain))
  in
  (* the probe row being replayed against build rows [pos .. stop - 1] *)
  let current = ref [||] and rows = ref [||] and pos = ref 0 and stop = ref 0 in
  let rec pull () =
    if !pos < !stop then begin
      incr pos;
      tick ();
      Some (Array.append !current !rows.(!pos - 1))
    end
    else
      match probe.next () with
      | None -> None
      | Some x ->
        let g = Lazy.force !table in
        stats.Stats.join_probe_rows <- stats.Stats.join_probe_rows + 1;
        stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
        let id =
          if Relation.has_null_at probe_key x then -1
          else Relation.Keyed.find g.Relation.Keyed.ids probe_key x
        in
        if id < 0 then pull ()
        else if unique_build then begin
          stats.Stats.probe_early_exits <- stats.Stats.probe_early_exits + 1;
          tick ();
          Some (Array.append x (Relation.Keyed.first g.Relation.Keyed.ids id))
        end
        else begin
          current := x;
          rows := g.Relation.Keyed.rows;
          pos := g.Relation.Keyed.starts.(id);
          stop := g.Relation.Keyed.starts.(id + 1);
          pull ()
        end
  in
  {
    schema;
    order = probe.order;
    next = pull;
    close =
      (fun () ->
        probe.close ();
        build.close ();
        table := lazy (Relation.Keyed.group build_key ignore);
        rows := [||];
        stop := 0);
  }

let semi_join ?(anti = false) ?(null_equal = false) ~stats ~probe_key
    ~build_key probe build =
  (* Output schema and order are the probe's: the operator only decides,
     per probe row, whether a build match exists ([anti] inverts). *)
  let probe_key = Array.of_list probe_key
  and build_key = Array.of_list build_key in
  let table =
    ref
      (lazy
        (let tbl = Relation.Keyed.create build_key in
         drain_build ~stats ~null_equal build_key build (fun row ->
             ignore (Relation.Keyed.find_or_add tbl row));
         tbl))
  in
  let rec pull () =
    match probe.next () with
    | None -> None
    | Some x ->
      let tbl = Lazy.force !table in
      stats.Stats.join_probe_rows <- stats.Stats.join_probe_rows + 1;
      stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
      let matched =
        (null_equal || not (Relation.has_null_at probe_key x))
        && Relation.Keyed.find tbl probe_key x >= 0
      in
      if matched <> anti then Some x else pull ()
  in
  {
    probe with
    next = pull;
    close =
      (fun () ->
        probe.close ();
        build.close ();
        table := lazy (Relation.Keyed.create build_key));
  }

(* Drain into an array and close the operator. *)
let to_array op =
  let rec go buf n =
    match op.next () with
    | None ->
      op.close ();
      Array.sub buf 0 n
    | Some r ->
      let buf =
        if n < Array.length buf then buf
        else begin
          let grown = Array.make (max 16 (2 * n)) r in
          Array.blit buf 0 grown 0 n;
          grown
        end
      in
      buf.(n) <- r;
      go buf (n + 1)
  in
  go [||] 0

(* Materializing ORDER BY — what the planner elides when order provenance
   already proves the stream sorted. The order is [Value.compare_total]
   per key column, so NULLs sort first and the result agrees byte-for-byte
   with [Database.load_sorted] verification and [merge_join]. The sort is
   stable: on an input already sorted on the keys it is the identity,
   which is what makes the elided strategy list-equal to it (equal-key
   rows keep arrival order in both).

   The path depends on the drained input's distinct-key count d. While d
   stays at most n/4, a [Relation.Keyed] table numbers the keys, only the
   d distinct keys are sorted (d log d comparisons), and one counting
   pass lays the rows out by key rank, in arrival order within a key.
   Past n/4 the numbering stops and the rows themselves are stable-sorted
   on the key positions. *)
let sort ~stats keys op =
  let key = Array.of_list (List.map (Schema.Relschema.index_of op.schema) keys) in
  let tick () = stats.Stats.comparisons <- stats.Stats.comparisons + 1 in
  let sorted rows =
    let n = Array.length rows in
    stats.Stats.sorts <- stats.Stats.sorts + 1;
    stats.Stats.sorted_rows <- stats.Stats.sorted_rows + n;
    match Relation.Keyed.number ~limit:(n / 4) key rows with
    | None ->
      Relation.sort_rows ~tick ~key rows;
      rows
    | Some (ids, row_ids) ->
      let d = Relation.Keyed.count ids in
      let keys_sorted = Array.init d (Relation.Keyed.first ids) in
      Relation.sort_rows ~tick ~key keys_sorted;
      let rank = Array.make d 0 in
      Array.iteri
        (fun k first -> rank.(Relation.Keyed.find ids key first) <- k)
        keys_sorted;
      Array.iteri (fun r id -> row_ids.(r) <- rank.(id)) row_ids;
      snd (Relation.Keyed.layout d row_ids rows n)
  in
  (* drained and sorted on the first pull, so construction stays pure *)
  let rows = ref None and pos = ref 0 in
  let next () =
    let rows =
      match !rows with
      | Some r -> r
      | None ->
        let r = sorted (to_array op) in
        rows := Some r;
        r
    in
    if !pos < Array.length rows then begin
      incr pos;
      Some rows.(!pos - 1)
    end
    else None
  in
  {
    schema = op.schema;
    order = keys;
    next;
    close = (fun () -> rows := Some [||]; pos := 0);
  }

(* Streaming sort-merge join: legal only when the planner certified both
   inputs' verified orders cover the join keys as a prefix (the engine
   trusts the certificate blindly, like [hash_join]'s unique-build mode).
   Matches [hash_join] semantics exactly — NULL join keys match nothing
   and are dropped from both sides — and emits probe-major, build rows in
   build order within a key group, so its output is list-equal to a hash
   join over the same (ordered) inputs. One key group of the build side
   is the only buffered state. *)
let merge_join ?(tick = no_op) ~stats ~probe_key ~build_key probe build =
  stats.Stats.merge_joins <- stats.Stats.merge_joins + 1;
  let schema = Schema.Relschema.product probe.schema build.schema in
  let probe_key = Array.of_list probe_key
  and build_key = Array.of_list build_key in
  (* keys are compared in place, at their positions in the rows *)
  let compare_keys ka a kb b =
    stats.Stats.comparisons <- stats.Stats.comparisons + 1;
    Relation.compare_at ka a kb b
  in
  (* lookahead: the next build row not yet assigned to a group *)
  let build_ahead = ref None in
  let build_done = ref false in
  let next_build () =
    match !build_ahead with
    | Some r ->
      build_ahead := None;
      Some r
    | None ->
      if !build_done then None
      else begin
        let rec pull () =
          match build.next () with
          | None ->
            build_done := true;
            None
          | Some r ->
            stats.Stats.join_build_rows <- stats.Stats.join_build_rows + 1;
            (* NULL join key: matches nothing *)
            if Relation.has_null_at build_key r then pull () else Some r
        in
        pull ()
      end
  in
  (* current build group: all build rows sharing the key of the probe row
     [group_probe], in order *)
  let group_probe = ref None in
  let group = ref [] in
  (* Advance the build cursor until its key is >= probe row [x]'s; collect
     the group at that key (possibly empty). Build keys are nondecreasing
     (certified), so skipped groups can never match a later probe key
     either: probe keys are nondecreasing too. *)
  let load_group x =
    let rec skip () =
      match next_build () with
      | None -> []
      | Some r ->
        let c = compare_keys build_key r probe_key x in
        if c < 0 then skip ()
        else if c = 0 then collect [ r ]
        else begin
          build_ahead := Some r;
          []
        end
    and collect acc =
      match next_build () with
      | None -> List.rev acc
      | Some r ->
        if compare_keys build_key r probe_key x = 0 then collect (r :: acc)
        else begin
          build_ahead := Some r;
          List.rev acc
        end
    in
    group_probe := Some x;
    group := skip ()
  in
  let current = ref None in
  let pending = ref [] in
  let rec pull () =
    match !pending with
    | y :: rest ->
      pending := rest;
      (match !current with
       | Some x ->
         tick ();
         Some (Array.append x y)
       | None -> assert false)
    | [] ->
      (match probe.next () with
       | None -> None
       | Some x ->
         stats.Stats.join_probe_rows <- stats.Stats.join_probe_rows + 1;
         if Relation.has_null_at probe_key x then pull ()
         else begin
           let same =
             match !group_probe with
             | Some g -> compare_keys probe_key g probe_key x = 0
             | None -> false
           in
           if not same then load_group x;
           match !group with
           | [] -> pull ()
           | rows ->
             current := Some x;
             pending := rows;
             pull ()
         end)
  in
  {
    schema;
    order = probe.order;
    next = pull;
    close =
      (fun () ->
        probe.close ();
        build.close ();
        build_ahead := None;
        build_done := true;
        group_probe := None;
        group := [];
        current := None;
        pending := []);
  }

let unique_path schema order =
  let cols = Array.of_list (Schema.Relschema.attrs schema) in
  let inside a = Array.exists (Schema.Attr.equal a) cols in
  let rec prefix = function
    | a :: rest when inside a -> a :: prefix rest
    | _ -> []
  in
  let p = prefix order in
  let positions =
    Array.of_list
      (List.filter
         (fun i -> List.exists (Schema.Attr.equal cols.(i)) p)
         (List.init (Array.length cols) Fun.id))
  in
  let covered = Array.length positions in
  ( (if covered = 0 then "hash-unique"
     else if covered = Array.length cols then "sorted-unique"
     else "prefix-unique"),
    positions )

(* Duplicates share P's values and the stream is sorted on P, so they
   fall in one run: a row is new iff its columns R outside P are new
   within its run. *)
let unique ~stats op =
  let strategy, prefix = unique_path op.schema op.order in
  let arity = Schema.Relschema.arity op.schema in
  let rest =
    Array.of_list
      (List.filter
         (fun i -> not (Array.mem i prefix))
         (List.init arity Fun.id))
  in
  let has_prefix = Array.length prefix > 0 in
  let table =
    if has_prefix && Array.length rest = 0 then None
    else Some (Relation.Keyed.create rest)
  in
  Stats.record_dedup stats ~strategy ~state:(if Option.is_none table then 1 else 0);
  (* the current run's first row; [||] before the first row (a row with a
     nonempty prefix is never empty) *)
  let run = ref [||] in
  let starts_run r =
    has_prefix
    && (Array.length !run = 0
        || begin
          stats.Stats.comparisons <- stats.Stats.comparisons + 1;
          Relation.compare_at prefix !run prefix r <> 0
        end)
  in
  let rec pull () =
    match op.next () with
    | None -> None
    | Some r ->
      stats.Stats.dedup_rows_in <- stats.Stats.dedup_rows_in + 1;
      let fresh = starts_run r in
      if fresh then run := r;
      let keep =
        match table with
        | None -> fresh
        | Some seen ->
          if fresh then Relation.Keyed.clear seen;
          stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
          let count = Relation.Keyed.count seen in
          Relation.Keyed.find_or_add seen r = count
          && begin
            stats.Stats.dedup_state_peak <-
              max stats.Stats.dedup_state_peak (count + 1);
            true
          end
      in
      if keep then begin
        stats.Stats.dedup_rows_out <- stats.Stats.dedup_rows_out + 1;
        Some r
      end
      else pull ()
  in
  { op with next = pull }

let elided_unique ~stats op =
  stats.Stats.distinct_elisions <- stats.Stats.distinct_elisions + 1;
  Stats.record_dedup stats ~strategy:"elided-unique" ~state:0;
  let pull () =
    match op.next () with
    | None -> None
    | Some r ->
      stats.Stats.dedup_rows_in <- stats.Stats.dedup_rows_in + 1;
      stats.Stats.dedup_rows_out <- stats.Stats.dedup_rows_out + 1;
      Some r
  in
  { op with next = pull }

let to_relation op = { Relation.schema = op.schema; rows = to_rows op }
