(** GP configuration.

    Defaults mirror the parameter values the paper states: the graph is
    coarsened to 100 nodes, the greedy initial partitioning restarts from 10
    random seeds, and the un-coarsen / re-coarsen cycle repeats "a number of
    parametrized times". *)

(** How {!Gp.partition} spends its time budget (DESIGN.md §6.5):

    - [Multilevel] — the paper's full V-cycle pipeline, the quality
      oracle; the default.
    - [Stream] — the {!Ppnpart_partition.Stream} restreaming
      partitioner alone: one O(edges) pass (restreamed up to
      [stream_iterations] times) with O(n + k + k²) live state, for
      graphs that dwarf the multilevel path.
    - [Hybrid] — the restream output seeds the boundary-driven
      {!Ppnpart_partition.Refine_constrained} active-set refiner
      directly, skipping coarsening and the V-cycle entirely.

    Stream and hybrid runs never touch the domain pool. The multilevel
    path races its V-cycles, initial restarts and matching strategies on
    {!Ppnpart_exec.Pool}, which picks its own width; every mode is
    bit-identical at every width. *)
type mode = Multilevel | Stream | Hybrid

val mode_name : mode -> string
(** ["multilevel"], ["stream"] or ["hybrid"] — the [--mode] spellings. *)

type t = {
  coarsen_target : int;  (** stop coarsening at this many nodes (paper: 100) *)
  n_initial_seeds : int;  (** greedy-growth restarts (paper: 10) *)
  max_cycles : int;  (** V-cycle retries before giving up (default 20) *)
  strategies : Ppnpart_partition.Matching.strategy list;
      (** matching heuristics raced at each coarsening level *)
  tabu_iterations : int;
      (** extension beyond the paper (its related work discusses tabu
          search lifting FM's move-once restriction): when positive, each
          descent's finest partition is polished with that many
          tabu-search moves. Default 0 = faithful paper behaviour. *)
  seed : int;  (** PRNG seed; equal seeds give identical runs *)
  debug_checks : bool;
      (** when true, [Gp.partition] installs the [Ppnpart_check]
          validators for the duration of the run: every phase boundary
          recomputes the partition state from scratch and raises
          [Check.Violation] on the first divergence. Defaults to
          [PPNPART_CHECK=1] in the environment; the CLI flag is
          [--check]. Off by default — disabled checks cost one atomic
          load per site. *)
  mode : mode;  (** pipeline selection (default [Multilevel]) *)
  stream_iterations : int;
      (** restream passes for [Stream]/[Hybrid] modes (default
          {!Ppnpart_partition.Stream.default_iterations} = 3); ignored
          by [Multilevel]. Must be ≥ 1. *)
  repartition_gate : float;
      (** {!Gp.repartition} edit-ratio gate: when an edit touches more
          than this fraction of the edited graph's nodes, incremental
          seeding is skipped and the full pipeline runs from scratch —
          at that scale boundary refinement would be repairing more of
          the labelling than it keeps. Must be ≥ 0; [0] forces
          from-scratch always (default 0.25). *)
}

val default : t

val validate : t -> unit
(** @raise Invalid_argument on non-positive sizes or an empty strategy
    list. *)
