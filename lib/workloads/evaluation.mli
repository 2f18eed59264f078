(** Evaluation harness: run a set of partitioners over a set of instances
    and aggregate the results.

    Used by the benchmark executable to produce the comparison matrices
    (and their machine-readable CSV twins in [bench_out/]) without
    copy-pasting measurement loops. *)

open Ppnpart_graph
open Ppnpart_partition

type algorithm = {
  name : string;
  solve : Wgraph.t -> Types.constraints -> int array;
      (** must return a valid partition for the instance's [k] *)
}

val gp : algorithm
(** GP at {!Ppnpart_core.Config.default}. *)

val metis_like : algorithm
(** Mini-METIS at seed 0. *)

val spectral : algorithm
(** Spectral K-way from a generator seeded with 0. *)

type instance = {
  label : string;
  graph : Wgraph.t;
  constraints : Types.constraints;
}

type row = {
  instance : string;
  algorithm : string;
  cut : int;
  max_bandwidth : int;
  max_resources : int;
  feasible : bool;
  runtime_s : float;
}

val run_matrix : algorithm list -> instance list -> row list
(** Every algorithm on every instance, wall-clock timed, in input order. *)

type summary = {
  algorithm : string;
  instances : int;
  feasible_count : int;
  mean_cut_ratio : float;
      (** geometric mean of [cut / best cut on that instance] (1.0 = always
          best; instances where every cut is 0 are skipped) *)
  total_runtime_s : float;
}

val summarize : row list -> summary list
(** One summary per algorithm, input order preserved. *)

val to_csv : row list -> string
(** Header plus one line per row. *)

val pp_rows : Format.formatter -> row list -> unit
val pp_summaries : Format.formatter -> summary list -> unit
