(* Every entry point checks [Obs.active] — one atomic load — before
   reading the domain's sink, so a build with neither tracing nor
   metrics pays a single predictable branch per site.

   When a trace buffer is present, span durations reuse the Begin/End
   timestamps already taken for the events (no extra clock reads, so
   logical-clock traces are unchanged); metrics-only runs fall back to
   [Unix.gettimeofday]. Durations are observed into the registry as the
   [<name>.us] histogram on the success path only. *)

let begin_args args = match args with None -> [] | Some th -> th ()

(* GC telemetry of a phase goes into the registry only — never into
   span args — so traces stay bit-identical across runs whose heap
   history differs (memo caches, warmup). *)
let record_gc shard name (d : Gc_stats.delta) =
  let observe suffix v =
    Metrics_registry.observe shard (name ^ suffix) (float_of_int v)
  in
  observe ".minor_words" d.minor_words;
  observe ".major_words" d.major_words;
  observe ".promoted_words" d.promoted_words;
  Metrics_registry.counter_add shard (name ^ ".minor_collections")
    d.minor_collections;
  Metrics_registry.counter_add shard (name ^ ".major_collections")
    d.major_collections;
  Metrics_registry.gauge_set shard "gc.heap_words"
    (float_of_int (Gc_stats.heap_words ()))

(* The one span shape all entry points share: [gc] additionally brackets
   the body with [Gc_stats.measure] feeding [record_gc]. *)
let span ~gc ?args ~result name f =
  let { Obs.buf; shard } = Obs.sink () in
  let observe_us dur =
    Option.iter (fun sh -> Metrics_registry.observe sh (name ^ ".us") dur) shard
  in
  let measured f =
    match shard with
    | Some sh when gc ->
      let v, d = Gc_stats.measure f in
      record_gc sh name d;
      v
    | _ -> f ()
  in
  match buf with
  | Some buf -> (
    let t0 = Obs.now buf in
    Obs.emit buf (Obs.Begin { name; ts = t0; args = begin_args args });
    match measured f with
    | v ->
      let t1 = Obs.now buf in
      Obs.emit buf (Obs.End { ts = t1; args = result v });
      observe_us (float_of_int (t1 - t0));
      v
    | exception e ->
      Obs.emit buf
        (Obs.End { ts = Obs.now buf; args = [ ("error", Obs.Bool true) ] });
      raise e)
  | None ->
    if shard = None then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      let v = measured f in
      observe_us ((Unix.gettimeofday () -. t0) *. 1e6);
      v
    end

let no_result _ = []

let with_ ?args name f =
  if not (Obs.active ()) then f ()
  else span ~gc:false ?args ~result:no_result name f

let with_result ?args ~result name f =
  if not (Obs.active ()) then f ()
  else span ~gc:false ?args ~result name f

let phase ?args name f =
  if not (Obs.active ()) then f ()
  else span ~gc:true ?args ~result:no_result name f

let phase_result ?args ~result name f =
  if not (Obs.active ()) then f ()
  else span ~gc:true ?args ~result name f

let instant ?args name =
  if Obs.active () then
    match (Obs.sink ()).buf with
    | None -> ()
    | Some buf ->
      Obs.emit buf
        (Obs.Instant { name; ts = Obs.now buf; args = begin_args args })
