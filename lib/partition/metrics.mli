(** Quality and feasibility metrics of a partition.

    These are the four quantities the paper's evaluation compares (Section
    V): total edge cut, maximum per-part resource allocation, maximum local
    (pairwise) bandwidth — plus the violation measures and the goodness
    function used internally by the GP algorithm to rank intermediate
    clusterings ("the one that is nearest to meeting the constraints"). *)

open Ppnpart_graph

val cut : Wgraph.t -> int array -> int
(** Total weight of edges whose endpoints lie in different parts
    ("Global Edge Cut Sum"). *)

val bandwidth_matrix : Wgraph.t -> k:int -> int array -> int array array
(** [k x k] symmetric matrix; entry [(p, q)] is the total edge weight
    between parts [p] and [q] ("Local Edge Cut"); diagonal is 0. *)

val max_local_bandwidth : Wgraph.t -> k:int -> int array -> int
(** Largest off-diagonal entry of the bandwidth matrix. *)

val part_resources : Wgraph.t -> k:int -> int array -> int array
(** Per-part sums of node weights. *)

val max_resource : Wgraph.t -> k:int -> int array -> int
(** "Maximum Resources Allocation". *)

val imbalance : Wgraph.t -> k:int -> int array -> float
(** Load-imbalance factor: heaviest part over the perfectly balanced load
    ([k * max / total]); 1.0 is perfect balance. 0 on an empty or
    weightless graph. This is the quantity METIS's [ufactor] bounds. *)

val bandwidth_excess : Wgraph.t -> Types.constraints -> int array -> int
(** Sum over part pairs of [max 0 (bandwidth - bmax)]; 0 iff the bandwidth
    constraint holds everywhere. *)

val resource_excess : Wgraph.t -> Types.constraints -> int array -> int
(** Sum over parts of [max 0 (resources - rmax)]. *)

val feasible : Wgraph.t -> Types.constraints -> int array -> bool

(** Everything the evaluation reports, from one sweep over the CSR
    arrays. {!goodness}, {!report}, the CLI tables, bench rows and the
    run report all derive from this record, so the quantities can never
    drift apart. *)
type quality = {
  cut : int;  (** total edge cut *)
  bandwidth : int array array;  (** [k x k] pairwise bandwidth matrix *)
  max_bandwidth : int;  (** largest off-diagonal entry *)
  bw_excess : int;  (** total bandwidth over [bmax], 0 iff ok *)
  loads : int array;  (** per-part resource sums *)
  max_resources : int;
  res_excess : int;  (** total resources over [rmax], 0 iff ok *)
  imbalance : float;  (** [k * max_resources / total_weight] *)
}

val quality : Wgraph.t -> Types.constraints -> int array -> quality
(** Validates the labelling ({!Types.check_partition}) and computes the
    full quality record in one O(n + m) pass over [xadj]/[adjncy]/
    [adjwgt]/[vwgt], without closures. Equal field by field to the
    record composed from {!bandwidth_matrix}, {!part_resources} and
    {!cut}. *)

(** Goodness of a candidate clustering. Ordering (smaller = better):
    normalized total violation first — so any feasible partition beats any
    infeasible one — then the cut. Violations are normalized by their bound
    (in parts per thousand) to make bandwidth and resource excess
    commensurable; the paper leaves this function unspecified, see
    DESIGN.md §5. *)
type goodness = {
  violation : int;  (** normalized excess, 0 when feasible *)
  cut_value : int;
}

val goodness : Wgraph.t -> Types.constraints -> int array -> goodness
val goodness_of_quality : Types.constraints -> quality -> goodness
val compare_goodness : goodness -> goodness -> int

(** The violation component of {!goodness} from raw excess totals; exposed
    so that incremental refiners rank moves with the same ordering. *)
val normalized_violation :
  Types.constraints -> bw_excess:int -> res_excess:int -> int
val pp_goodness : Format.formatter -> goodness -> unit

(** Everything the paper's result tables report, in one record. *)
type report = {
  total_cut : int;
  max_bandwidth : int;
  max_resources : int;
  bandwidth_ok : bool;
  resource_ok : bool;
  runtime_s : float;
}

val report :
  ?runtime_s:float -> Wgraph.t -> Types.constraints -> int array -> report

val report_of_quality : ?runtime_s:float -> quality -> report
(** Derive the table record from an already-computed {!quality} (bumps
    the [metrics.report] counter, like {!report}). *)

val pp_report : Format.formatter -> report -> unit
