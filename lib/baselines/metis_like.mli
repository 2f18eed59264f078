(** Mini-METIS: multilevel K-way cut minimization with a balance constraint.

    This is the comparator of the paper's evaluation — "METIS always
    partitions, regardless of said constraints": it minimizes the global
    edge cut while keeping part weights within a load-imbalance factor
    (METIS 5 default 1.03), and is entirely unaware of the pairwise
    bandwidth bound [Bmax] and the absolute resource bound [Rmax].

    Pipeline (the standard scheme of Karypis & Kumar, Section III):
    heavy-edge coarsening to a small graph, greedy graph-growing initial
    K-way partitioning, then greedy K-way boundary refinement at every
    un-coarsening level. *)

open Ppnpart_graph

type stats = {
  part : int array;
  cut : int;
  levels : int;  (** hierarchy depth used *)
  runtime_s : float;
}

val partition : ?seed:int -> Wgraph.t -> k:int -> stats
(** [partition g ~k] coarsens to [max 30 (4 * k)] nodes, keeps every
    part within the 1.03 load imbalance, and is deterministic for a fixed
    [seed] (default 0). *)

val log_src : Logs.Src.t
(** The [ppnpart.baselines] log source. *)
