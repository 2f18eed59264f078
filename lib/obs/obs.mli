(** Observability core: one domain-local sink slot feeding two sinks —
    hierarchical trace buffers of spans, counters and samples, and the
    {!Metrics_registry} — designed so that both are bit-identical at
    every job count.

    Each sink is installed and finished on its own (a run may want a
    trace, metrics, both or neither), but they share one plumbing.
    Every domain has one {e current sink}: a trace buffer, a registry
    shard, or both. Instrumentation sites ({!Span}, {!Counters}) write
    to it. The main domain's sink is the capture's root buffer and the
    registry's root shard; every {!Ppnpart_exec.Pool} task gets a
    private buffer and shard created for its task index. When a task
    group commits, its buffers are attached to the parent buffer as
    {!Child} events and its shards are folded into the parent shard,
    both {e in task order} — one per task, independent of the number of
    domains that executed them — so the merged trace and the registry
    snapshot depend only on the task structure, never on the schedule.

    When no sink is installed, every instrumentation entry point
    reduces to one atomic load and a branch: the pipeline runs the exact
    same algorithm with or without observability. *)

type clock =
  | Wall  (** microseconds since the epoch ([Unix.gettimeofday]) *)
  | Logical
      (** a per-buffer event counter; used by tests to make whole traces
          reproducible bit-for-bit *)

type value = Int of int | Float of float | Str of string | Bool of bool

type args = (string * value) list
(** span / event attributes, exported as the Chrome-trace [args] object *)

type buf
(** an append-only event buffer, owned by one domain at a time *)

type event =
  | Begin of { name : string; ts : int; args : args }
  | End of { ts : int; args : args }
  | Instant of { name : string; ts : int; args : args }
  | Count of { name : string; ts : int; delta : int }
  | Sample of { name : string; ts : int; value : float }
  | Child of buf
      (** a completed task buffer, spliced in task order; rendered as its
          own track by {!Trace_export} *)

type capture = { root : buf; clock : clock }

(** {2 Trace sink} *)

val install : ?clock:clock -> unit -> unit
(** Install a fresh capture (default {!Wall} clock) and make its root
    buffer current on the calling domain. Replaces any previous capture.
    Call from the main domain only. *)

val finish : unit -> capture option
(** Uninstall and return the capture installed by {!install}, if any. *)

val with_capture : ?clock:clock -> (unit -> 'a) -> 'a * capture
(** [with_capture f] installs, runs [f], finishes. On exception the
    capture is discarded and the exception re-raised. *)

val events : buf -> event list
(** Events in emission order (consumed by {!Trace_export}). *)

(** {2 Registry sink} *)

val install_registry : unit -> unit
(** Install a fresh registry and make its root shard current on the
    calling domain. Replaces any previous registry. Main domain only. *)

val finish_registry : unit -> Metrics_registry.snapshot option
(** Uninstall the registry installed by {!install_registry}, if any,
    fold its worker shards ({!worker_group}) into the root in creation
    and worker order, and return the root's snapshot. The worker
    domains must have been joined. *)

val with_registry : (unit -> 'a) -> 'a * Metrics_registry.snapshot
(** [with_registry f] installs, runs [f], finishes. On exception the
    registry is discarded and the exception re-raised. *)

val recording : unit -> bool
(** Whether a sink would record from this domain right now. Use to
    guard instrumentation whose {e argument computation} is not free
    (e.g. counting matched pairs before a {!Counters.add}). *)

(** {2 Plumbing for instrumentation sites}

    Used by {!Span}, {!Counters} and {!Ppnpart_exec}; not meant for
    application code. *)

val active : unit -> bool
(** Whether any sink is installed — one atomic load, no domain-local
    access. Instrumentation sites check this first so the disabled path
    costs a single load and branch; it may be [true] on a domain whose
    {!sink} is empty (a domain outside any task). *)

type sink = { buf : buf option; shard : Metrics_registry.t option }
(** A domain's current trace buffer and registry shard. *)

val sink : unit -> sink
(** This domain's current sink. *)

val now : buf -> int
(** A timestamp on the buffer's clock (advances the logical counter). *)

val emit : buf -> event -> unit

type group
(** Per-task sinks for one [Pool.run] call, or per-worker shards of one
    [Worker_pool]. *)

val group : int -> group option
(** [group n] creates [n] task sinks under the calling domain's sink —
    a buffer per task if it has a buffer, a shard per task if it has a
    shard — or [None] when it has neither (then the pool runs
    untouched). *)

val worker_group : int -> group option
(** [worker_group n] creates [n] registry shards for long-lived worker
    domains, or [None] when no registry is installed. They are folded
    into the registry's root by {!finish_registry}, not by {!commit}.
    Workers record no trace: which worker runs which job depends on the
    schedule. *)

val in_task : group -> int -> (unit -> 'a) -> 'a
(** [in_task g i f] runs [f] with member [i]'s sink current on the
    calling domain, restoring the previous sink afterwards. *)

val commit : ?keep:int -> group option -> unit
(** Attach the first [keep] task buffers (default: all) to the buffer
    that created the group, and fold the corresponding shards into the
    shard that created it, both in task order. Speculative executions
    beyond [keep] are discarded so trace and metrics match the
    sequential schedule. Idempotent: only the first commit has
    effect. *)
