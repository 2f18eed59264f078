(** Greedy K-way boundary refinement under a balance constraint.

    The refinement used by the mini-METIS baseline: repeated randomized
    sweeps over boundary nodes, each node moved to the adjacent part with
    the highest positive cut gain provided the destination stays below the
    balance limit [imbalance * total / k] (METIS's default load imbalance is
    1.03). Zero-gain moves are taken when they improve balance. *)

open Ppnpart_graph

val refine :
  ?imbalance:float ->
  Random.State.t ->
  Wgraph.t ->
  k:int ->
  int array ->
  int array * int
(** [refine rng g ~k part] returns the refined copy and its cut after at
    most 8 sweeps. [imbalance] defaults to 1.03. Parts are never
    emptied. *)
