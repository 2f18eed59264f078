let log_src = Logs.Src.create "ppnpart.exec" ~doc:"Domain pool execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_jobs () =
  match Sys.getenv_opt "PPNPART_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> Domains.recommended ())
  | None -> Domains.recommended ()

let resolve jobs = if jobs > 0 then jobs else default_jobs ()

type 'a outcome =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type deferred = Ppnpart_obs.Obs.group option

let run_deferred ?(jobs = 0) tasks =
  (* Never run more domains than the hardware offers: the tasks are
     CPU-bound, so extra domains only add spawn cost, scheduler churn
     and GC coordination — on a single-core host a requested [jobs = 4]
     used to run 3x *slower* than sequential. Results are unaffected:
     task outputs are deterministic in the task index by construction. *)
  let jobs = min (resolve jobs) (Domains.recommended ()) in
  let n = Array.length tasks in
  (* The trace group is created before the sequential/parallel split so
     the buffer tree — and hence the exported trace — has the same shape
     at every job count. *)
  let group = Ppnpart_obs.Obs.group n in
  let tasks =
    match group with
    | None -> tasks
    | Some g ->
      Array.mapi (fun i f () -> Ppnpart_obs.Obs.in_task g i f) tasks
  in
  let results =
    if jobs <= 1 || n <= 1 then Array.map (fun f -> f ()) tasks
    else begin
      Log.debug (fun m -> m "running %d tasks on %d domains" n jobs);
      let results = Array.make n Pending in
      let next = Atomic.make 0 in
      (* Each slot is written by exactly one domain (the one that claimed
         its index), so plain array stores are race-free; Domain.join
         publishes them to the main domain. *)
      let worker () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue := false
          else
            results.(i) <-
              (match tasks.(i) () with
              | v -> Done v
              | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
        done
      in
      let spawned =
        Domains.spawn_workers (min (jobs - 1) (n - 1)) (fun _ -> worker ())
      in
      worker ();
      Domains.join_all spawned;
      Array.map
        (function
          | Done v -> v
          | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
          | Pending -> assert false)
        results
    end
  in
  (results, group)

let run ?jobs tasks =
  let results, group = run_deferred ?jobs tasks in
  Ppnpart_obs.Obs.commit group;
  results

let map ?jobs f xs = run ?jobs (Array.map (fun x () -> f x) xs)
