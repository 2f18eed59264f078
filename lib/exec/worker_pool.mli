(** Long-lived worker domains with per-worker resident state and
    bounded, per-client-fair FIFO queues — the execution substrate of
    the partition daemon ({!Ppnpart_server.Daemon}).

    {!Pool} spawns domains per call and joins them before returning,
    which is right for one run's speculative V-cycles but wrong for a
    server: a daemon wants its domains resident, each owning one
    {!Ppnpart_partition.Workspace} for its whole lifetime ({e workspace
    affinity}), so that steady-state requests allocate no scratch at
    all and never contend for it.

    Scheduling: each client has its own FIFO queue, bounded at
    [queue_limit] jobs; clients ready to run are served round-robin, one
    job in flight per client at a time. That gives three properties at
    once — no client starves another ({e fairness}), each client's jobs
    run {e and complete} in submission order (responses cannot
    overtake), and total queued work is bounded by
    [clients x queue_limit] ({e admission control} — an overloaded
    submit is refused immediately rather than queued forever).

    Jobs run on an arbitrary worker, so per-client ordering is the only
    ordering; two clients' jobs interleave freely. *)

type ('s, 'a) t
(** A pool whose workers each hold one ['s] and run jobs producing
    ['a]. *)

val create : workers:int -> queue_limit:int -> state:(int -> 's) -> ('s, 'a) t
(** [create ~workers ~queue_limit ~state] spawns [workers] domains;
    worker [i] builds its resident state with [state i] {e on its own
    domain} (so domain-local structures land where they are used) and
    keeps it until {!stop}. When a metrics registry is installed
    ({!Ppnpart_obs.Obs.install_registry}), each worker records into its
    own shard, which {!Ppnpart_obs.Obs.finish_registry} folds in worker
    order — so stop the pool before finishing the registry.
    @raise Invalid_argument if [workers < 1] or [queue_limit < 1]. *)

val submit :
  ('s, 'a) t ->
  client:int ->
  run:('s -> 'a) ->
  finish:(('a, exn) result -> unit) ->
  [ `Accepted | `Overloaded | `Stopped ]
(** Enqueue a job for [client]. [run] executes on a worker domain with
    that worker's state; [finish] follows on the same domain with
    [run]'s outcome (an exception it raised is caught and passed as
    [Error]) and must be quick and non-blocking — the worker is held
    until it returns, which is what keeps one client's responses in
    order. [`Overloaded] = that client's queue is at [queue_limit];
    [`Stopped] = {!stop} was called. Thread-safe. *)

val pending : _ t -> int
(** Jobs accepted but not yet finished (queued + in flight). *)

val stop : _ t -> unit
(** Stop accepting, drain every already-accepted job, and join the
    worker domains. Must not be called from a job's [run]/[finish] (the
    join would deadlock); idempotent. *)
