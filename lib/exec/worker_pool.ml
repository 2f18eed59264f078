type ('s, 'a) job = { run : 's -> 'a; finish : ('a, exn) result -> unit }

type ('s, 'a) slot = {
  q : ('s, 'a) job Queue.t;
  mutable in_flight : bool;
  mutable on_ready : bool;  (** queued in [ready] (at most once) *)
}

type ('s, 'a) t = {
  m : Mutex.t;
  nonempty : Condition.t;
  clients : (int, ('s, 'a) slot) Hashtbl.t;
  ready : int Queue.t;  (** round-robin order of runnable clients *)
  queue_limit : int;
  mutable queued : int;
  mutable inflight : int;
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
}

let rec worker_loop t state =
  Mutex.lock t.m;
  let rec await () =
    if not (Queue.is_empty t.ready) then `Job
    else if t.stopped && t.inflight = 0 then `Exit
    else begin
      Condition.wait t.nonempty t.m;
      await ()
    end
  in
  match await () with
  | `Exit ->
    (* Everyone else is in the same state; pass the verdict on. *)
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m
  | `Job ->
    let cid = Queue.pop t.ready in
    let slot = Hashtbl.find t.clients cid in
    slot.on_ready <- false;
    slot.in_flight <- true;
    let job = Queue.pop slot.q in
    t.queued <- t.queued - 1;
    t.inflight <- t.inflight + 1;
    Mutex.unlock t.m;
    let outcome = try Ok (job.run state) with e -> Error e in
    (* [finish] runs before the client becomes schedulable again — that
       serialization is what keeps one client's responses in submission
       order even though jobs land on arbitrary workers. *)
    (try job.finish outcome with _ -> ());
    Mutex.lock t.m;
    slot.in_flight <- false;
    t.inflight <- t.inflight - 1;
    if not (Queue.is_empty slot.q) then begin
      (* Back of the round-robin: other ready clients go first. *)
      slot.on_ready <- true;
      Queue.push cid t.ready;
      Condition.signal t.nonempty
    end
    else if t.stopped && t.inflight = 0 && Queue.is_empty t.ready then
      Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    worker_loop t state

let create ~workers ~queue_limit ~state =
  if workers < 1 then invalid_arg "Worker_pool.create: workers < 1";
  if queue_limit < 1 then invalid_arg "Worker_pool.create: queue_limit < 1";
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      clients = Hashtbl.create 16;
      ready = Queue.create ();
      queue_limit;
      queued = 0;
      inflight = 0;
      stopped = false;
      domains = [||];
    }
  in
  (* With a registry installed, each worker records into its own shard,
     folded into the registry when it is finished (after [stop]). *)
  let sinks = Ppnpart_obs.Obs.worker_group workers in
  let work i () = worker_loop t (state i) in
  t.domains <-
    Domains.spawn_workers workers (fun i ->
        match sinks with
        | None -> work i ()
        | Some g -> Ppnpart_obs.Obs.in_task g i (work i));
  t

let submit t ~client ~run ~finish =
  Mutex.lock t.m;
  let verdict =
    if t.stopped then `Stopped
    else begin
      let slot =
        match Hashtbl.find_opt t.clients client with
        | Some s -> s
        | None ->
          let s = { q = Queue.create (); in_flight = false; on_ready = false } in
          Hashtbl.replace t.clients client s;
          s
      in
      if Queue.length slot.q >= t.queue_limit then `Overloaded
      else begin
        Queue.push { run; finish } slot.q;
        t.queued <- t.queued + 1;
        if (not slot.in_flight) && not slot.on_ready then begin
          slot.on_ready <- true;
          Queue.push client t.ready;
          Condition.signal t.nonempty
        end;
        `Accepted
      end
    end
  in
  Mutex.unlock t.m;
  verdict

let pending t =
  Mutex.lock t.m;
  let n = t.queued + t.inflight in
  Mutex.unlock t.m;
  n

let stop t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.nonempty;
  let doms = t.domains in
  t.domains <- [||];
  Mutex.unlock t.m;
  Domains.join_all doms
