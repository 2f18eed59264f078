(** Process-wide metrics registry: counters, gauges, and log-bucketed
    histograms, deterministic at every pool width.

    Mirrors the {!Obs} capture design. At most one registry is
    installed; sites write to the {e current shard}, a domain-local
    reference: the main domain writes to the registry's root shard, and
    every {!Ppnpart_exec.Pool} task writes to a private shard created
    for its task index (plumbed through {!Obs.group}). When a group
    commits, task shards are folded into the parent {e in task order} —
    integer counter and bucket merges are order-free, and the single
    float addition per histogram per task happens in a fixed order — so
    {!snapshot} is bit-identical at every job count. Speculative task
    shards beyond [commit ~keep] are dropped, exactly like uncommitted
    trace buffers.

    When no registry is installed, every entry point is gated behind the
    shared {!Hot} flag and costs one load and branch. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Histogram.snapshot) list;
}
(** All lists sorted by metric name. *)

val empty_snapshot : snapshot

val install : unit -> unit
(** Install a fresh registry and make its root shard current on the
    calling domain. Replaces any previous registry. Main domain only. *)

val finish : unit -> snapshot option
(** Uninstall, returning a final snapshot of the registry installed by
    {!install}, if any. *)

val with_registry : (unit -> 'a) -> 'a * snapshot
(** [with_registry f] installs, runs [f], finishes. On exception the
    registry is discarded and the exception re-raised. *)

val active : unit -> bool
(** Whether a registry is installed — one atomic load. *)

val snapshot : unit -> snapshot option
(** Snapshot the installed registry without uninstalling it. Call from
    the main domain with no pool tasks in flight. *)

(** {2 Site entry points}

    Used by {!Counters} and {!Span}; callable directly for metrics that
    have no trace-event counterpart. No-ops without a registry or on a
    worker domain outside any task. *)

val counter_add : string -> int -> unit
(** Bump a monotonic counter. *)

val gauge_set : string -> float -> unit
(** Set a gauge (last write wins; task order breaks ties across a pool
    group). *)

val observe : string -> float -> unit
(** Record one observation into histogram [name]. *)

(** {2 Task groups}

    Plumbed through {!Obs.group} so {!Ppnpart_exec.Pool} drives both
    sinks with one group value. *)

type group

val group : int -> group option
(** [group n] creates [n] task shards under the current shard, or
    [None] when no registry is installed. *)

val in_task : group -> int -> (unit -> 'a) -> 'a
(** Run [f] with task [i]'s shard current on the calling domain,
    restoring the previous shard afterwards. *)

val commit : ?keep:int -> group option -> unit
(** Fold the first [keep] task shards (default: all) into the shard
    that created the group, in task order. Idempotent. *)
