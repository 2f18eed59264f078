let log_src = Logs.Src.create "ppnpart.exec" ~doc:"Domain pool execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The width this domain has pinned: [Some 1] inside a pool task,
   [Some w] under [with_width w], [None] for the default rule. The
   domain's systhreads share it; threads racing their pins could only
   change the width, and results do not depend on it. *)
let pinned : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let width () =
  match Domain.DLS.get pinned with
  | Some w -> w
  | None -> if Domain.is_main_domain () then Domains.recommended () else 1

let pin w f =
  let prev = Domain.DLS.get pinned in
  Domain.DLS.set pinned (Some w);
  Fun.protect ~finally:(fun () -> Domain.DLS.set pinned prev) f

let with_width w f =
  if w < 1 then invalid_arg "Pool.with_width: width < 1";
  (* Never more domains than the hardware offers: the tasks are
     CPU-bound, so extra domains only add spawn cost, scheduler churn
     and GC coordination — on a single-core host 4 domains used to run
     3x *slower* than sequential. *)
  pin (min w (Domains.recommended ())) f

type 'a outcome =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type deferred = Ppnpart_obs.Obs.group option

let run_deferred ?(parallel = true) tasks =
  let n = Array.length tasks in
  let width = if parallel then min (width ()) n else 1 in
  (* The trace group is created before the sequential/parallel split so
     the buffer tree — and hence the exported trace — has the same shape
     at every width. *)
  let group = Ppnpart_obs.Obs.group n in
  let tasks =
    match group with
    | None -> Array.map (fun f () -> pin 1 f) tasks
    | Some g ->
      Array.mapi (fun i f () -> pin 1 (fun () -> Ppnpart_obs.Obs.in_task g i f))
        tasks
  in
  let results =
    if width <= 1 then Array.map (fun f -> f ()) tasks
    else begin
      Log.debug (fun m -> m "running %d tasks on %d domains" n width);
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
      let spawned = Domains.spawn_workers (width - 1) (fun _ -> worker ()) in
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

let run ?parallel tasks =
  let results, group = run_deferred ?parallel tasks in
  Ppnpart_obs.Obs.commit group;
  results
