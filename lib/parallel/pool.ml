(* One parallel map: [map] publishes a batch, and every domain, the caller
   included, claims item indices from its atomic [next] until none is
   left. An item's outcome goes to its own slot, so running one never
   raises. Completions are counted under the one mutex: the caller that
   sees the count reach 0 also sees every slot. *)

type batch = {
  size : int;
  run : int -> unit;  (* run item [i] into its slot; never raises *)
  next : int Atomic.t;  (* the next unclaimed index *)
  mutable unfinished : int;  (* guarded by [mutex] *)
}

type shared = {
  mutex : Mutex.t;  (* guards [batch], [generation], [stop], [unfinished] *)
  work : Condition.t;  (* workers: a new generation, or [stop] *)
  finished : Condition.t;  (* the caller: a batch's count reached 0 *)
  mutable batch : batch option;
  mutable generation : int;
  mutable stop : bool;
}

type t = {
  n_jobs : int;
  shared : shared option;  (* None iff n_jobs = 1: the sequential path *)
  mutable domains : unit Domain.t list;
}

let jobs t = t.n_jobs

(* Claim and run items until the batch has none left, then count this
   domain's completions in one step. *)
let drain s b =
  let rec go ran =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.size then begin
      b.run i;
      go (ran + 1)
    end
    else ran
  in
  let ran = go 0 in
  if ran > 0 then begin
    Mutex.lock s.mutex;
    b.unfinished <- b.unfinished - ran;
    if b.unfinished = 0 then Condition.broadcast s.finished;
    Mutex.unlock s.mutex
  end

let worker s =
  let rec loop seen =
    Mutex.lock s.mutex;
    while s.generation = seen && not s.stop do
      Condition.wait s.work s.mutex
    done;
    let stop = s.stop and generation = s.generation and batch = s.batch in
    Mutex.unlock s.mutex;
    if not stop then begin
      Option.iter (drain s) batch;
      loop generation
    end
  in
  loop 0

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  if jobs = 1 then { n_jobs = 1; shared = None; domains = [] }
  else begin
    let s =
      { mutex = Mutex.create (); work = Condition.create ();
        finished = Condition.create (); batch = None; generation = 0;
        stop = false }
    in
    let domains =
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker s))
    in
    { n_jobs = jobs; shared = Some s; domains }
  end

let map t f xs =
  match (t.shared, xs) with
  | None, _ -> List.map f xs
  | Some _, [] -> []
  | Some s, _ ->
    let items = Array.of_list xs in
    let slots = Array.make (Array.length items) None in
    let run i =
      slots.(i) <-
        Some
          (match f items.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let size = Array.length items in
    let b = { size; run; next = Atomic.make 0; unfinished = size } in
    Mutex.lock s.mutex;
    s.batch <- Some b;
    s.generation <- s.generation + 1;
    Condition.broadcast s.work;
    Mutex.unlock s.mutex;
    drain s b;
    Mutex.lock s.mutex;
    while b.unfinished > 0 do
      Condition.wait s.finished s.mutex
    done;
    s.batch <- None;
    Mutex.unlock s.mutex;
    (* Index order, so the first failure in input order is the one raised. *)
    let results = ref [] in
    for i = 0 to b.size - 1 do
      match slots.(i) with
      | Some (Ok v) -> results := v :: !results
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false
    done;
    List.rev !results

let shutdown t =
  match t.shared with
  | None -> ()
  | Some s ->
    Mutex.lock s.mutex;
    s.stop <- true;
    Condition.broadcast s.work;
    Mutex.unlock s.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
