(** Graph contraction and the multilevel hierarchy.

    Contraction merges each matched pair into one coarse node whose weight is
    the sum of the pair's weights; parallel edges created by the merge are
    combined by adding their weights, and edges internal to a pair vanish
    (Section IV.A of the paper). A partition of the coarse graph therefore
    has exactly the same cut, pairwise bandwidth and per-part resources as
    its projection to the fine graph — the invariant the whole multilevel
    scheme rests on. *)

open Ppnpart_graph

val contract :
  ?workspace:Workspace.t -> Wgraph.t -> int array -> Wgraph.t * int array
(** [contract g partner] is [(coarse, cmap)] with [cmap.(u)] the coarse node
    holding fine node [u]. Runs the direct CSR→CSR kernel: the coarse
    adjacency is built in [workspace] scratch (a private workspace if
    omitted) with generation-marked duplicate merging, allocating only the
    coarse graph itself. The result is bit-identical to the
    [Edge_list]-based contraction in [test/oracle/coarsen_oracle.ml].
    @raise Invalid_argument if [partner] is not a valid matching. *)

(** A coarsening hierarchy. [graphs.(0)] is the input (finest) graph;
    [maps.(l).(u)] sends node [u] of level [l] to its node at level
    [l + 1]. *)
type hierarchy = private {
  graphs : Wgraph.t array;
  maps : int array array;  (** length [levels - 1] *)
}

val levels : hierarchy -> int
val finest : hierarchy -> Wgraph.t
val coarsest : hierarchy -> Wgraph.t
val graph_at : hierarchy -> int -> Wgraph.t

val build :
  ?workspace:Workspace.t ->
  ?target:int ->
  ?strategies:Matching.strategy list ->
  Random.State.t ->
  Wgraph.t ->
  hierarchy
(** Coarsen until at most [target] nodes remain (default 100, the paper's
    default), a level shrinks by less than 5% of its nodes (the matching
    has stalled), or no edges remain. At every level the best of [strategies] (default all
    three) by {!Matching.matched_weight} is used; the strategies race
    concurrently (see {!Matching.best_of} — the hierarchy is identical
    at every pool width). [workspace] is reused across all
    levels (and across calls, e.g. V-cycle re-coarsenings). *)

val extend :
  ?workspace:Workspace.t ->
  ?target:int ->
  ?strategies:Matching.strategy list ->
  Random.State.t ->
  hierarchy ->
  from_level:int ->
  hierarchy
(** [extend rng h ~from_level] drops the levels coarser than [from_level]
    and re-coarsens from there with fresh random matchings — the
    "coarsen back to the lowest level" step of the paper's cyclic
    un-coarsen / re-coarsen scheme (Section IV.C). *)

val project : hierarchy -> coarse_level:int -> int array -> int array
(** [project h ~coarse_level part] pulls a partition of
    [graph_at h coarse_level] down to the finest graph. *)

val project_one : int array -> int array -> int array
(** [project_one map coarse_part] is the one-level projection:
    [fine_part.(u) = coarse_part.(map.(u))]. *)

val pp : Format.formatter -> hierarchy -> unit
(** Level-by-level size trace (reproduces the shape of the paper's
    Figure 1). *)
