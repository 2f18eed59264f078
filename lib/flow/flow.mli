(** The end-to-end tool flow: affine program → process network →
    constrained K-way partition → multi-FPGA mapping → (optionally)
    cycle-level simulation.

    This is the "tool to automatically map tasks to FPGAs" the paper's
    abstract calls for, as one library call. Constraint bounds are derived
    from the instance itself unless given explicitly: a spectral probe
    partition anchors what a reasonable mapping achieves, and fixed
    headroom factors turn that into budgets: Rmax is 1.5x the balanced
    load, Bmax 4/3 of the probe's largest pairwise bandwidth (the recipe
    of {!Ppnpart_workloads.Ppn_suite}, so derived instances are feasible
    by construction under the pairwise model). Channel volumes are not
    scaled, and the simulation's FIFOs hold 64 tokens. *)

open Ppnpart_graph
open Ppnpart_partition

type algorithm =
  | Gp of Ppnpart_core.Config.t  (** the paper's partitioner *)
  | Metis_like  (** the cut-only baseline *)
  | Spectral  (** recursive spectral bisection *)

type options = {
  k : int;  (** number of FPGAs *)
  algorithm : algorithm;
  topology : Ppnpart_fpga.Platform.topology;
  link_bandwidth : int;  (** data units per cycle per link (simulation) *)
  explicit_constraints : Types.constraints option;
      (** overrides the derived bounds entirely when set *)
  simulate : bool;
  seed : int;
}

val default_options : k:int -> options
(** GP with default config, all-to-all links of bandwidth 2/cycle,
    derived bounds, simulation on. *)

type t = {
  ppn : Ppnpart_ppn.Ppn.t;
  graph : Wgraph.t;
  constraints : Types.constraints;
  assignment : int array;  (** process -> FPGA *)
  report : Metrics.report;
  feasible : bool;  (** pairwise model (the paper's constraints) *)
  platform : Ppnpart_fpga.Platform.t;
  mapping_violations : Ppnpart_fpga.Mapping.violation list;
      (** routed per-link check against the derived static bounds *)
  simulation :
    (Ppnpart_fpga.Sim.result, Ppnpart_fpga.Sim.error) result option;
}

val run : options -> Ppnpart_poly.Stmt.t list -> t
(** @raise Invalid_argument on an empty program or invalid options. *)

val map_ppn : options -> Ppnpart_ppn.Ppn.t -> t
(** Same flow for an already-built process network. *)

val pp_summary : Format.formatter -> t -> unit
(** Multi-line human-readable account of every stage. *)

val write_artifacts : dir:string -> t -> string list
(** Write the design's artifacts into [dir] (created if missing) and
    return the paths written: [network.dot] (the PPN, clustered by FPGA),
    [graph.dot] (the partitioned weighted graph), [assignment.part] (the
    partition, {!Ppnpart_partition.Partition_io} format) and [summary.txt]
    ({!pp_summary}). *)

val log_src : Logs.Src.t
(** The [ppnpart.flow] log source. *)
