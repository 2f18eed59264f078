(** Matching heuristics for the coarsening phase.

    The paper (Section IV.A) uses three matching heuristics and, at every
    coarsening level, keeps the best of the three:

    - {b Random Maximal Matching} — nodes visited in random order, each
      unmatched node matched with a random unmatched neighbour;
    - {b Heavy Edge Matching} — edges visited in descending weight order,
      an edge is taken when both endpoints are still unmatched;
    - {b K-Means Matching} — nodes are first clustered by weight proximity
      and connectivity, then matched heavy-edge-first inside each cluster
      (the paper describes this heuristic loosely; the exact construction is
      documented in DESIGN.md §5 and below).

    A matching is encoded as a partner array: [m.(u) = v] and [m.(v) = u]
    for a matched pair, [m.(u) = u] for an unmatched node.

    The edge-sorting strategies ({!heavy_edge}, {!k_means}) stream edges
    into flat int buffers (optionally borrowed from a {!Workspace.t}) and
    sort packed [(weight, rank)] int keys. *)

type strategy = Random_maximal | Heavy_edge | K_means

val all_strategies : strategy list
val strategy_name : strategy -> string

val compute :
  ?workspace:Workspace.t ->
  strategy ->
  Random.State.t ->
  Ppnpart_graph.Wgraph.t ->
  int array

val random_maximal : Random.State.t -> Ppnpart_graph.Wgraph.t -> int array

val heavy_edge :
  ?workspace:Workspace.t ->
  Random.State.t ->
  Ppnpart_graph.Wgraph.t ->
  int array

val k_means :
  ?workspace:Workspace.t ->
  Random.State.t ->
  Ppnpart_graph.Wgraph.t ->
  int array
(** Clusters of roughly 8 nodes are seeded by
    weight-spread nodes, grown by strongest-connection assignment with one
    k-means-style refinement sweep on node weight, then matched
    heavy-edge-first within clusters; remaining nodes are matched maximally
    across clusters. *)

val matched_weight : Ppnpart_graph.Wgraph.t -> int array -> int
(** Total weight of matched edges — the criterion used to pick the best of
    the three heuristics (contracting heavier edges removes more weight from
    future cuts). *)

val count_matched_pairs : int array -> int

val is_valid : Ppnpart_graph.Wgraph.t -> int array -> bool
(** Partner relation is symmetric, in range, and only joins adjacent
    nodes. *)

val best_of :
  ?workspace:Workspace.t ->
  ?strategies:strategy list ->
  ?jobs:int ->
  Random.State.t ->
  Ppnpart_graph.Wgraph.t ->
  strategy * int array
(** Runs each strategy and returns the one with maximal {!matched_weight}
    (ties: earlier in the list). Default: all three. Each strategy draws
    from its own stream split off [rng] in list order, so with [jobs > 1]
    the strategies race on a domain pool (on graphs large enough for it
    to pay off) and the result is identical for every job count.
    [workspace] lends the racing strategies their (per-strategy, hence
    race-safe) edge buffers. *)
