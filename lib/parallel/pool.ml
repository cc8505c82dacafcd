(** A fixed-size domain worker pool with a deterministic, order-preserving
    [map].

    The pool exists to fan independent simulator runs out over the host's
    cores without disturbing the rendered output: work items are dispatched
    by index, every result is written back into the slot of the item that
    produced it, and the assembled list is returned in submission order.
    Scheduling order therefore never leaks into the result — [map pool f xs]
    is observably [List.map f xs] (including which exception is reported
    when several items fail: the one with the smallest index wins).

    Workers are spawned once in {!create} and reused across batches; each
    {!map} call builds a fresh batch closure carrying its own atomic work
    counter, so a worker waking up late from a previous batch can never
    steal indices from the next one. *)

type runner = unit -> bool
(** Claim and execute one work item of the current batch; [false] when the
    batch is exhausted. *)

type t = {
  jobs : int;  (** total workers, caller included *)
  mutex : Mutex.t;
  work_ready : Condition.t;  (** a new batch was published (or shutdown) *)
  work_done : Condition.t;  (** the current batch completed *)
  mutable batch : runner option;  (** the batch being drained, if any *)
  mutable generation : int;  (** bumped when [batch] is replaced *)
  mutable stopped : bool;
  mutable domains : unit Domain.t list;  (** the [jobs - 1] spawned workers *)
}

let recommended () = Domain.recommended_domain_count ()

(** [0] means "one worker per recommended domain"; anything else is clamped
    to at least one. *)
let resolve_jobs n = if n = 0 then recommended () else max 1 n

let jobs t = t.jobs

(* Workers sleep between batches and drain whichever batch closure is
   current when they wake. [seen] is the generation the worker has already
   drained (or started from), so a spurious wakeup never re-enters an
   exhausted batch. *)
let rec worker_loop t ~seen =
  Mutex.lock t.mutex;
  while (not t.stopped) && t.generation = seen do
    Condition.wait t.work_ready t.mutex
  done;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let runner = t.batch in
    Mutex.unlock t.mutex;
    (match runner with
    | Some run -> while run () do () done
    | None -> ());
    worker_loop t ~seen:gen
  end

let create ~jobs () =
  let jobs = resolve_jobs jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      generation = 0;
      stopped = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () -> worker_loop t ~seen:0));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(** Deterministic ordered map. The caller participates as a worker, so a
    pool created with [~jobs:1] (no spawned domains) degrades to a plain
    sequential [List.map]. Not reentrant: a single batch runs at a time,
    and [f] must not call [map] on the same pool. *)
let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when t.domains = [] -> List.map f xs
  | _ ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    (* Fresh per-batch closure: the atomic claim counter lives here, not in
       the pool, so stale workers from an earlier generation cannot race
       this batch's indices. *)
    let run_one () =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then false
      else begin
        let r =
          try Ok (f items.(i))
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- Some r;
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          (* last item of the batch: wake the caller *)
          Mutex.lock t.mutex;
          Condition.broadcast t.work_done;
          Mutex.unlock t.mutex
        end;
        true
      end
    in
    Mutex.lock t.mutex;
    t.batch <- Some run_one;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (* the caller drains the batch alongside the workers *)
    while run_one () do () done;
    Mutex.lock t.mutex;
    while Atomic.get remaining > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.batch <- None;
    Mutex.unlock t.mutex;
    (* Reassemble in submission order; report the lowest-index failure so
       the observable outcome matches a sequential left-to-right run. *)
    for i = 0 to n - 1 do
      match results.(i) with
      | None -> assert false (* remaining = 0 implies every slot is filled *)
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) -> ()
    done;
    List.init n (fun i ->
        match results.(i) with Some (Ok v) -> v | _ -> assert false)

(** [with_pool ~jobs f] runs [f] over a fresh pool and always shuts it
    down, including on exceptions. [~jobs] below 2 yields a pool with no
    spawned domains (pure sequential maps). *)
let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
