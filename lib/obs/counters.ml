(* Like [Span], each entry point is gated on the single-load
   [Obs.active] check before reading the domain's sink. Counter bumps
   and samples feed both sinks: a trace event in the current buffer,
   and the registry counter/histogram of the same name. *)

let add name delta =
  if Obs.active () then begin
    let { Obs.buf; shard } = Obs.sink () in
    (match buf with
    | Some buf -> Obs.emit buf (Obs.Count { name; ts = Obs.now buf; delta })
    | None -> ());
    match shard with
    | Some sh -> Metrics_registry.counter_add sh name delta
    | None -> ()
  end

let incr name = add name 1

let sample name value =
  if Obs.active () then begin
    let { Obs.buf; shard } = Obs.sink () in
    (match buf with
    | Some buf -> Obs.emit buf (Obs.Sample { name; ts = Obs.now buf; value })
    | None -> ());
    match shard with
    | Some sh -> Metrics_registry.observe sh name value
    | None -> ()
  end
