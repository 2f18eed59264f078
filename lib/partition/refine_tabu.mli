(** Tabu-search refinement toward the bandwidth and resource constraints.

    The paper's related-work section singles out Tabu Search as the
    costlier local search that lifts FM's move-once-per-pass restriction
    ("a node can be moved different times during one iteration"). This
    module provides that search on the same objective as
    {!Refine_constrained}: at every step the globally best move is taken —
    worsening or not — unless the node was moved within the tabu tenure
    (aspiration: a move producing a new overall best is always allowed);
    the best state visited is returned.

    Cost is O(iterations * n * k); intended for small graphs: GP runs it
    to rescue a small infeasible result ([Gp.tabu_rescue]). *)

open Ppnpart_graph

val refine :
  ?iterations:int ->
  ?workspace:Workspace.t ->
  Wgraph.t ->
  Types.constraints ->
  int array ->
  int array * Metrics.goodness
(** [refine g c part] runs at most [iterations] (default [4 * n]) moves
    with tabu tenure [7 + n/16], stopping early after [2 * n] moves
    without a new best. Deterministic (ties break by node id).
    [workspace] backs the state and scratch (private when omitted); the
    cached connectivity rows make the global selection scan O(nk) per
    step instead of O(m + nk). Returns the best partition visited and its
    goodness — never worse than the input. *)
