(** Initial partitioning of the coarsest graph.

    Three seeding algorithms:

    - {!random_kway} — uniform random labels (the weakest baseline, used by
      tests and by the paper's "partitioning phase (randomly)" restart);
    - {!graph_growing} — METIS-style greedy graph growing aiming at balanced
      part weights (used by the mini-METIS baseline);
    - {!greedy_resource_growth} — the paper's Section IV.B algorithm:
      start from the heaviest node, grow partition 0 by absorbing neighbours
      while the resource bound [rmax] holds, proceed to the next partition
      from the heaviest unassigned node, then place leftovers into the part
      with the biggest free space (violating [rmax] only if nothing fits);
      the whole process restarts from [n_seeds] (default 10) random initial
      nodes and the candidate with the best {!Metrics.goodness} wins. *)

open Ppnpart_graph

val random_kway : Random.State.t -> Wgraph.t -> k:int -> int array

val graph_growing : Random.State.t -> Wgraph.t -> k:int -> int array
(** Grows [k-1] regions by BFS from random seeds up to [total/k] weight
    each; the remainder forms the last part. Every part label is used when
    [n >= k]. *)

val greedy_resource_growth :
  ?n_seeds:int ->
  Random.State.t ->
  Wgraph.t ->
  Types.constraints ->
  int array
(** The [n_seeds] region growings fan out over the domain pool (on
    graphs large enough for it to pay off). The seed nodes are drawn
    from [rng] up front in restart order, so the result is identical at
    every {!Ppnpart_exec.Pool.width}. *)

val pick_heaviest : Wgraph.t -> int
(** Lowest-id node of maximal weight.
    @raise Invalid_argument on the empty graph. *)
