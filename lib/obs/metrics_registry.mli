(** The metric table behind the registry sink: counters, gauges and
    log-bucketed histograms, with a deterministic fold and a sorted
    snapshot.

    A table is one {e shard} of the registry. {!Obs} keeps the shards
    and decides which one is current on each domain: the installed
    registry's root shard on the main domain, a private shard per
    {!Ppnpart_exec.Pool} task, one per long-lived daemon worker. It
    folds task shards into their parent in task order when a group
    commits, and worker shards into the root in worker order when the
    registry is finished. Counter and bucket merges are integer adds,
    and the single float addition per histogram per fold happens in
    that fixed order, so snapshots are bit-identical at every pool
    width. *)

type t
(** One shard: a table of named metrics. A name holds one kind of
    metric; a write of another kind under a taken name is dropped. *)

val create : unit -> t

val counter_add : t -> string -> int -> unit
(** Bump a monotonic counter. *)

val gauge_set : t -> string -> float -> unit
(** Set a gauge (last write wins). *)

val observe : t -> string -> float -> unit
(** Record one observation into histogram [name]. *)

val fold_into : t -> t -> unit
(** [fold_into dst src] adds [src]'s counters and histograms to [dst]'s
    and overwrites [dst]'s gauges with [src]'s. [src] is unchanged. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Histogram.snapshot) list;
}
(** All lists sorted by metric name. *)

val empty_snapshot : snapshot

val snapshot : t -> snapshot
