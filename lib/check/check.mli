(** From-scratch invariant validation for the partitioning pipeline.

    Every quantity that {!Ppnpart_partition.Part_state} maintains
    incrementally — the pairwise bandwidth matrix, per-part resource loads
    and member counts, the cut, and both raw excess totals — is recomputed
    here from the graph and the current partition via
    {!Ppnpart_partition.Metrics}, then diffed field by field against the
    incremental state. A divergence raises {!Violation} naming the first
    field that disagrees, so a delta bug surfaces at the move that
    introduced it rather than as a silently wrong final cut.

    Checks are wired into the refiners through
    {!Ppnpart_partition.Debug_hooks}: call {!install} (or run with
    [--check] / [PPNPART_CHECK=1]) and every phase boundary of the GP
    pipeline validates its state. When not installed, each call site costs
    one atomic load and a branch — the same zero-cost-when-disabled
    discipline as [Ppnpart_obs]. *)

open Ppnpart_graph
open Ppnpart_partition

exception
  Violation of {
    site : string;  (** call site, e.g. ["fm_pass.rollback"] *)
    field : string;  (** first divergent quantity, e.g. ["bw\[1\]\[2\]"] *)
    expected : string;  (** value recomputed from scratch *)
    actual : string;  (** value held by the incremental state *)
  }
(** Raised by the validators below. A human-readable printer is
    registered, so an uncaught violation prints all four components. *)

val part_state : ?site:string -> Part_state.t -> unit
(** Recompute every maintained quantity of the state from scratch and
    diff. Fields are compared in dependency order — partition validity,
    bandwidth matrix, loads, member counts, cut, bandwidth excess,
    resource excess, then the per-node caches (connectivity rows,
    external degrees, active set), the maximum weighted degree and the
    member chains — so [field] names the most upstream divergence.
    Bumps the obs counter ["check.<site>"]. *)

val partition : ?site:string -> Wgraph.t -> Types.constraints -> int array -> unit
(** Validate a bare partition array against the graph: exact length and
    every label in [\[0, k)]. *)

val projection :
  ?site:string ->
  map:int array ->
  coarse:int array ->
  fine:int array ->
  unit ->
  unit
(** Check that [fine] is exactly [coarse] pulled back through [map]
    (label preservation of uncoarsening): [fine.(u) = coarse.(map.(u))]
    for all [u]. *)

val env_enabled : unit -> bool
(** Whether [PPNPART_CHECK] requests checking (set, non-empty, not
    ["0"]). *)

val enabled : unit -> bool
(** Whether the validator is currently installed. *)

val install : unit -> unit
(** Install {!part_state} as the {!Ppnpart_partition.Debug_hooks}
    validator and enable the phase-boundary checks in [Gp.descend]. *)

val uninstall : unit -> unit

val with_checks : (unit -> 'a) -> 'a
(** Run [f] with checks installed, restoring the previous installation
    state afterwards (exception-safe). *)
