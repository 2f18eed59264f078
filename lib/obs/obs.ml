(* Core observability state: one domain-local sink slot shared by the
   trace (a tree of event buffers) and the metrics registry (a tree of
   shards).

   Events go to the *current sink* of the domain: the main domain
   writes to the capture's root buffer and the registry's root shard; a
   Pool task writes to a private buffer and shard created for its task
   index. Task buffers are attached to their parent buffer as [Child]
   events and task shards folded into their parent shard, one per task,
   in task order — regardless of how many domains actually ran the
   tasks — which is what makes the merged trace and the snapshot
   identical for every job count. *)

type clock = Wall | Logical

type value = Int of int | Float of float | Str of string | Bool of bool

type args = (string * value) list

type buf = {
  clock : clock;
  mutable rev_events : event list;
  mutable seq : int;  (** logical timestamp counter *)
}

and event =
  | Begin of { name : string; ts : int; args : args }
  | End of { ts : int; args : args }
  | Instant of { name : string; ts : int; args : args }
  | Count of { name : string; ts : int; delta : int }
  | Sample of { name : string; ts : int; value : float }
  | Child of buf

type capture = { root : buf; clock : clock }

let make_buf clock = { clock; rev_events = []; seq = 0 }

let now (buf : buf) =
  match buf.clock with
  | Wall -> int_of_float (Unix.gettimeofday () *. 1e6)
  | Logical ->
    let t = buf.seq in
    buf.seq <- t + 1;
    t

let emit buf ev = buf.rev_events <- ev :: buf.rev_events

let events buf = List.rev buf.rev_events

(* --- the per-domain slot --- *)

type sink = { buf : buf option; shard : Metrics_registry.t option }

let empty = { buf = None; shard = None }

let slot : sink ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref empty)

(* Single-load fast path for every instrumentation site: whether any
   sink is installed. Keeping the check to one plain load before any
   domain-local storage access is what keeps the disabled pipeline
   within measurement noise of an uninstrumented build — DLS lookup plus
   an option branch per site was measurable on the hot refinement
   loops. *)
let any = Atomic.make false

let[@inline] active () = Atomic.get any

let sink () = !(Domain.DLS.get slot)

let recording () =
  active ()
  && match sink () with { buf = None; shard = None } -> false | _ -> true

(* --- task groups (the Pool integration) --- *)

type group = {
  parent : sink;
  members : sink array;
  mutable committed : bool;
}

let make_group parent n =
  let member _ =
    {
      buf = Option.map (fun (p : buf) -> make_buf p.clock) parent.buf;
      shard = Option.map (fun _ -> Metrics_registry.create ()) parent.shard;
    }
  in
  { parent; members = Array.init n member; committed = false }

let group n =
  if not (active ()) then None
  else
    match sink () with
    | { buf = None; shard = None } -> None
    | parent -> Some (make_group parent n)

let in_task g i f =
  let s = Domain.DLS.get slot in
  let saved = !s in
  s := g.members.(i);
  Fun.protect ~finally:(fun () -> s := saved) f

let commit ?keep g_opt =
  match g_opt with
  | None -> ()
  | Some g ->
    if not g.committed then begin
      g.committed <- true;
      let n = Array.length g.members in
      let n =
        match keep with
        | None -> n
        | Some k -> if k < 0 then 0 else min k n
      in
      for i = 0 to n - 1 do
        let m = g.members.(i) in
        (match (g.parent.buf, m.buf) with
        | Some p, Some b -> emit p (Child b)
        | _ -> ());
        match (g.parent.shard, m.shard) with
        | Some p, Some s -> Metrics_registry.fold_into p s
        | _ -> ()
      done
    end

(* --- installation: main-domain state --- *)

type registry = {
  root : Metrics_registry.t;
  mutable workers : group list;  (* newest first *)
}

let capture : capture option ref = ref None
let registry : registry option ref = ref None

let refresh () =
  Atomic.set any (Option.is_some !capture || Option.is_some !registry)

let set_current f =
  let s = Domain.DLS.get slot in
  s := f !s

let install ?(clock = Wall) () =
  let root = make_buf clock in
  capture := Some { root; clock };
  set_current (fun s -> { s with buf = Some root });
  refresh ()

let finish () =
  let cap = !capture in
  capture := None;
  refresh ();
  set_current (fun s -> { s with buf = None });
  cap

let install_registry () =
  let root = Metrics_registry.create () in
  registry := Some { root; workers = [] };
  set_current (fun s -> { s with shard = Some root });
  refresh ()

let finish_registry () =
  let reg = !registry in
  registry := None;
  refresh ();
  set_current (fun s -> { s with shard = None });
  Option.map
    (fun r ->
      List.iter (fun g -> commit (Some g)) (List.rev r.workers);
      Metrics_registry.snapshot r.root)
    reg

let worker_group n =
  match !registry with
  | None -> None
  | Some r ->
    let g = make_group { buf = None; shard = Some r.root } n in
    r.workers <- g :: r.workers;
    Some g

let with_sink ~install ~finish ~what f =
  install ();
  match f () with
  | v -> (
    match finish () with
    | Some x -> (v, x)
    | None -> invalid_arg (what ^ ": finished early"))
  | exception e ->
    ignore (finish ());
    raise e

let with_capture ?clock f =
  with_sink ~install:(install ?clock) ~finish ~what:"Obs.with_capture" f

let with_registry f =
  with_sink ~install:install_registry ~finish:finish_registry
    ~what:"Obs.with_registry" f
