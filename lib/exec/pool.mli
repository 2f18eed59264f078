(** A small fork-join domain pool for speculative parallel search.

    OCaml 5 [Domain]s are spawned per {!run} call and joined before it
    returns — there is no persistent worker state, so the pool composes
    with any caller and never leaks domains. Tasks must be independent
    and deterministic (draw randomness from a private [Random.State]);
    under that contract the result array is identical at every width,
    which is what lets the GP partitioner guarantee bit-identical
    partitions however many domains run it.

    The pool picks its own width (see {!width}): the hardware's on the
    main domain, one everywhere else — inside a pool task, so nested
    calls run sequentially instead of oversubscribing the machine, and
    on other domains such as the daemon's resident workers. *)

val log_src : Logs.Src.t
(** The [ppnpart.exec] log source. *)

val width : unit -> int
(** The number of domains a {!run} call started here may use: inside a
    pool task or on a domain other than the main one, [1]; on the main
    domain, [Domain.recommended_domain_count ()] (which follows the
    process's CPU affinity), unless {!with_width} pins it. *)

val with_width : int -> (unit -> 'a) -> 'a
(** [with_width w f] runs [f] with {!width} pinned to
    [min w (Domain.recommended_domain_count ())] on the calling domain —
    never more domains than the hardware offers. Pool tasks still run at
    width 1. A seam for tests and benchmarks that compare widths.
    @raise Invalid_argument if [w < 1]. *)

val run : ?parallel:bool -> (unit -> 'a) array -> 'a array
(** [run tasks] evaluates every task and returns the results in task
    order. With [~parallel:false] (the call site's size threshold says
    the work is too small to pay for a spawn), a {!width} of 1 or fewer
    than two tasks everything runs sequentially in the calling domain;
    otherwise up to [width () - 1] extra domains are spawned and tasks
    are drained from a shared atomic counter. The first exception (by
    task index) is re-raised after all domains have joined. *)

type deferred = Ppnpart_obs.Obs.group option
(** Trace buffers of a {!run_deferred} call, awaiting commitment. *)

val run_deferred : ?parallel:bool -> (unit -> 'a) array -> 'a array * deferred
(** Like {!run}, but when tracing is active the per-task trace buffers
    are returned instead of being merged immediately. The caller must
    pass them to {!Ppnpart_obs.Obs.commit} — with [~keep] to discard the
    trace of speculative tasks whose results it threw away, so the
    merged trace matches the sequential schedule. [run] is
    [run_deferred] followed by an unconditional commit. *)
