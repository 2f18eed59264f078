(** Greedy K-way boundary refinement under a balance constraint.

    The refinement used by the mini-METIS baseline: repeated randomized
    sweeps over boundary nodes, each node moved to the adjacent part with
    the highest positive cut gain provided the destination stays below the
    balance limit [imbalance * total / k] (METIS's default load imbalance is
    1.03). Zero-gain moves are taken when they improve balance. *)

open Ppnpart_graph

val refine :
  ?max_passes:int ->
  ?imbalance:float ->
  Random.State.t ->
  Wgraph.t ->
  k:int ->
  int array ->
  int array * int
(** [refine rng g ~k part] returns the refined copy and its cut.
    [max_passes] defaults to 8, [imbalance] to 1.03. Parts are never
    emptied. *)

val refine_fm :
  ?workspace:Ppnpart_partition.Workspace.t ->
  ?max_passes:int ->
  ?imbalance:float ->
  Wgraph.t ->
  k:int ->
  int array ->
  int array * int
(** K-way boundary FM (Sanchis-style): one pass tentatively moves each
    node at most once, always the highest-gain available move (gain
    buckets), accepting negative gains, then rolls back to the best
    balanced prefix — the hill-climbing variant of {!refine}. Higher
    quality, higher constant factor; deterministic. Same balance contract
    as {!refine}. *)
