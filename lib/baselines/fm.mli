(** Standalone Fiduccia–Mattheyses baseline: two-way refinement, a
    random balanced bisection, and a K-way variant by recursive
    bisection.

    One pass moves each node at most once, always the highest-gain
    movable node (gain buckets, {!Ppnpart_partition.Bucket}), tentatively
    accepting negative-gain moves (the hill-climbing ability the paper
    credits FM with) and finally rolling back to the best prefix of the
    move sequence. Passes repeat until a pass brings no improvement.
    Linear time per pass in the number of edge endpoints touched. *)

open Ppnpart_graph

val refine :
  ?balance_tolerance:float ->
  Wgraph.t ->
  int array ->
  int array * int
(** [refine g part] returns a refined copy of [part] and its cut. A state is
    balanced when both side weights are at most
    [balance_tolerance *. total /. 2.] (default tolerance 1.1); rollback
    targets the best balanced prefix, or the most balanced prefix if none is
    balanced (so an unbalanced input is repaired rather than rejected).
    Runs at most 8 passes.
    @raise Invalid_argument if [part] contains labels other than 0 and 1. *)

val bisect : Random.State.t -> Wgraph.t -> int array * int
(** Random balanced initial bisection followed by {!refine} at its default
    tolerance — the standalone FM baseline of Section II.A.2. *)

val kway : Random.State.t -> Wgraph.t -> k:int -> int array
(** Recursive FM bisection ({!bisect}); best balanced for [k] a power of
    two. *)
