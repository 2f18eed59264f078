(** The Kernighan–Lin bisection heuristic (Section II.A.1 of the paper).

    Pairs of nodes are tentatively swapped between the two sides in
    decreasing order of swap gain; after all nodes are locked the best
    prefix of swaps is kept, and passes repeat until no improvement. A pass
    is O(n^2 log n) here (the paper quotes O(n^3) for the original
    formulation) — KL is a baseline, not the workhorse. Node weights are
    ignored for balance, as in the original algorithm (its first documented
    drawback: "handling of unit node weights only"); sides are balanced by
    node count. *)

open Ppnpart_graph

val refine : Wgraph.t -> int array -> int array * int
(** [refine g part] improves a two-way partition by at most 8 KL passes
    and returns the refined copy with its cut.
    @raise Invalid_argument if [part] is not two-way. *)

val bisect : Random.State.t -> Wgraph.t -> int array * int
(** Random half/half split (by node count) followed by {!refine}. *)
