let c_par_tasks = Obs.Counter.make "par.tasks"

(* Chunks abandoned because the ambient [Obs.Progress] deadline blew
   while they ran: worker domains observe the same context as the
   caller, so one blown deadline cancels the whole map. *)
let c_par_cancelled = Obs.Counter.make "par.cancelled"

let default = ref 1
let set_default_jobs n = default := max 1 n

(* Lists shorter than this run sequentially even when jobs > 1.  Handing
   two or three tasks to the pool costs a lock hand-off, a broadcast and
   a condition-variable wake per task — measured at ~4x the total work
   for two-element workloads in the b1 repair-enumeration bench — while
   the parallel upside at that size is at most the (tiny) chunk overlap.
   The default of 4 is where b1 crosses over to a net win. *)
let cutoff = ref 4
let set_parallel_cutoff n = cutoff := max 2 n
let parallel_cutoff () = !cutoff

type 'b slot =
  | Empty
  | Done of 'b list
  | Failed of exn * Printexc.raw_backtrace

(* Split [xs] into [n] contiguous chunks whose lengths differ by at most
   one (first chunks get the extra elements). *)
let chunk n xs =
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec take k acc xs =
    if k = 0 then (List.rev acc, xs)
    else match xs with [] -> (List.rev acc, []) | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let rec go i xs acc =
    if i >= n then List.rev acc
    else
      let sz = base + if i < extra then 1 else 0 in
      let c, rest = take sz [] xs in
      go (i + 1) rest (c :: acc)
  in
  go 0 xs [] |> List.filter (fun c -> c <> [])

let run_chunk f xs =
  match List.map f xs with
  | ys -> Done ys
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

(* Worker pool.  [Domain.spawn] costs on the order of a millisecond (each
   domain gets its own minor heap), which dwarfs the chunks the repair hot
   paths hand us — so domains are spawned once, lazily, and kept parked on
   a condition variable pulling thunks from a shared queue.  The pool only
   ever grows (to the largest [jobs - 1] requested) and is torn down by an
   [at_exit] hook so the process can shut down cleanly. *)

let lock = Mutex.create ()
let cond = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let workers : unit Domain.t list ref = ref []
let stopping = ref false
let busy = ref 0 (* workers currently inside a task; guarded by [lock] *)

let worker_loop () =
  let rec next () =
    Mutex.lock lock;
    let rec wait () =
      if !stopping then None
      else
        match Queue.take_opt queue with
        | Some t -> Some t
        | None ->
            Condition.wait cond lock;
            wait ()
    in
    let step = wait () in
    (match step with Some _ -> incr busy | None -> ());
    Mutex.unlock lock;
    match step with
    | None -> ()
    | Some t ->
        t ();
        Mutex.lock lock;
        decr busy;
        Mutex.unlock lock;
        next ()
  in
  next ()

let locked f =
  Mutex.lock lock;
  let v = f () in
  Mutex.unlock lock;
  v

let sample_gauges registry =
  let g name v = Obs.Registry.set_gauge registry ("par." ^ name) v in
  locked (fun () ->
      g "pool_size" (float_of_int (List.length !workers));
      g "queue_depth" (float_of_int (Queue.length queue));
      g "busy_workers" (float_of_int !busy));
  g "default_jobs" (float_of_int !default)

(* Must be called with [lock] held. *)
let ensure_workers n =
  let missing = n - List.length !workers in
  for _ = 1 to missing do
    workers := Domain.spawn worker_loop :: !workers
  done

let () =
  at_exit (fun () ->
      Mutex.lock lock;
      stopping := true;
      Condition.broadcast cond;
      Mutex.unlock lock;
      List.iter Domain.join !workers;
      workers := [])

let map ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> !default in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs <= 1 || Obs.Trace.is_enabled () -> List.map f xs
  | _ when List.length xs < !cutoff -> List.map f xs
  | _ ->
      let chunks = Array.of_list (chunk (min jobs (List.length xs)) xs) in
      let n = Array.length chunks in
      let slots = Array.make n Empty in
      let remaining = ref (n - 1) in
      Mutex.lock lock;
      ensure_workers (jobs - 1);
      for i = 1 to n - 1 do
        Obs.Counter.incr c_par_tasks;
        Queue.add
          (fun () ->
            let r = run_chunk f chunks.(i) in
            Mutex.lock lock;
            slots.(i) <- r;
            decr remaining;
            Condition.broadcast cond;
            Mutex.unlock lock)
          queue
      done;
      Condition.broadcast cond;
      Mutex.unlock lock;
      (* The calling domain works on chunk 0 instead of idling, then helps
         drain the queue while waiting — which also makes nested maps
         deadlock-free (a waiter never parks while work is available). *)
      Obs.Counter.incr c_par_tasks;
      slots.(0) <- run_chunk f chunks.(0);
      Mutex.lock lock;
      while !remaining > 0 do
        match Queue.take_opt queue with
        | Some t ->
            Mutex.unlock lock;
            t ();
            Mutex.lock lock
        | None -> Condition.wait cond lock
      done;
      Mutex.unlock lock;
      Array.iter
        (function
          | Failed (e, _) when Obs.Progress.is_cancel e ->
              Obs.Counter.incr c_par_cancelled
          | _ -> ())
        slots;
      let results =
        Array.to_list slots
        |> List.map (function
             | Done ys -> ys
             | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
             | Empty -> assert false)
      in
      List.concat results

let filter_map ?jobs f xs = map ?jobs f xs |> List.filter_map Fun.id
