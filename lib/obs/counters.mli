(** Monotonic counters and value histograms.

    Counter increments are recorded as events in the current buffer and
    as registry counters, so totals aggregate deterministically over the
    buffer/shard tree: increments from pool tasks merge in task order,
    and speculative work that the caller discards (uncommitted task
    buffers/shards) never counts. Samples likewise feed both the trace
    and the registry histogram of the same name.

    Hot loops should accumulate into a local [int ref] and emit one
    {!add} per pass — an increment costs an event-list cons when tracing
    is on, and the ref bump is free either way. *)

val add : string -> int -> unit
(** [add name delta] bumps counter [name]; no-op when all observability
    is off. If computing [delta] itself is costly, guard the call site
    with {!Obs.recording}. *)

val incr : string -> unit
(** [incr name] is [add name 1]. *)

val sample : string -> float -> unit
(** Record one observation of the value distribution [name] (e.g. a
    per-level contraction ratio). *)
