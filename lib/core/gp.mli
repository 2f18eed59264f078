(** GP — the paper's constraint-aware multilevel K-way partitioner.

    Section IV: the input graph is coarsened to a parametrized size (racing
    the three matching heuristics at every level and keeping the best); the
    coarsest graph receives the greedy resource-bounded initial partitioning
    with random restarts followed by FM-style refinement toward the
    bandwidth constraint; then the partition is projected level by level to
    the finest graph with constraint-driven refinement at each step. If the
    finest partition still violates a constraint, the algorithm performs a
    partial V-cycle — re-coarsen from a random intermediate level with fresh
    matchings, re-seed, re-refine — and keeps the candidate with the best
    goodness, cyclically, up to [max_cycles] times. An instance that stays
    infeasible is reported as such ("either impossible or the tool needs
    more iterations", Section IV.C).

    The V-cycle retries run speculatively in parallel on the domain pool,
    as wide as {!Ppnpart_exec.Pool.width} (the hardware's on the main
    domain, one elsewhere): each cycle draws its randomness from a private
    stream derived from [(seed, cycle_index)] and re-coarsens from the
    base hierarchy, and results are folded in cycle order with the fold
    stopping at the first feasibility — so the returned partition is
    bit-identical at every width. *)

open Ppnpart_graph
open Ppnpart_partition

(** The one O(m) pass per answer is a
    {!Ppnpart_partition.Metrics.quality} recomputation of its labels,
    the {e certificate}, kept as [quality]: [feasible], [goodness],
    [report] and {!Run_report.of_result} come from it. Every search
    keeps a goodness of its own (the refinement state's, the stream
    state's, the enumeration's); a disagreement bumps
    [gp.certificate_mismatch]. *)
type result = {
  part : int array;
  feasible : bool;
  goodness : Metrics.goodness;
  report : Metrics.report;
  quality : Metrics.quality;  (** the certificate of [part] *)
  cycles_used : int;  (** V-cycles beyond the first descent *)
  levels : int;  (** depth of the base hierarchy *)
  runtime_s : float;
  history : Metrics.goodness list;
      (** best goodness after the initial descent and after each V-cycle,
          oldest first — the convergence trace behind the paper's "give
          the tool more time" diagnostic *)
}

val partition : ?config:Config.t -> Wgraph.t -> Types.constraints -> result
(** Deterministic for a fixed [config.seed]. Works on disconnected and
    even edgeless graphs (the constraints may still bind through [rmax]). *)

val partition_exn :
  ?config:Config.t -> Wgraph.t -> Types.constraints -> result
(** Like {!partition} but
    @raise Failure when no feasible partition was found, with the paper's
    diagnostic message. *)

val partition_metis :
  ?config:Config.t -> string -> Types.constraints -> Wgraph.t * result
(** [partition_metis text c]: partition a graph supplied as METIS
    [.graph] text, returning the parsed graph alongside the result.
    {!Ppnpart_graph.Graph_io.of_metis} followed by {!partition}.
    @raise Failure as {!Ppnpart_graph.Graph_io.of_metis} on malformed
    text. *)

(** {1 Incremental repartitioning}

    Design-space exploration re-derives the PPN after every small
    transformation; {!repartition} answers the re-partition request
    without a fresh V-cycle. The previous labels are projected through
    the edit's node map, {!Ppnpart_partition.Stream.seed_partial}
    places the holes (nodes the edit added; skipped when there are
    none), and only the boundary-driven refiner — plus the small-n
    tabu rescue — runs on top. Two gates guard quality: an edit
    touching more than [config.repartition_gate] of the nodes goes
    straight to the full pipeline, and an incremental result that stays
    infeasible is raced against a full from-scratch run with the better
    goodness kept, so feasibility is never lost to the shortcut.
    Sequential except for that fallback, hence — like {!partition} —
    bit-identical at every pool width. *)

type repartition = {
  rp_result : result;  (** labelling of the {e edited} graph *)
  rp_graph : Wgraph.t;  (** the edited graph itself *)
  rp_node_map : int array;
      (** new id → original id, [-1] for nodes the edit added (from
          {!Ppnpart_partition.Graph_edit.apply}) *)
  rp_incremental : bool;
      (** [false] when a gate sent the request through the full
          pipeline *)
  rp_seeded : int;  (** nodes placed by the streaming objective *)
  rp_edit : Graph_edit.stats;
}

type resident
(** A slot for the refinement state ({!Ppnpart_partition.Part_state})
    behind the last incremental answer, kept between requests on one
    graph (a daemon keeps one per graph). It owns a workspace of its
    own, empty until the first {!repartition} that fills the slot grows
    it to about [(k + 13) · n] words. *)

val resident : unit -> resident
(** An empty slot. *)

val forget : resident -> unit
(** Drop the held state (the workspace stays for reuse). For a caller
    whose labelling moved on by other means, e.g. a new {!partition}. *)

val repartition :
  ?config:Config.t ->
  ?workspace:Workspace.t ->
  ?resident:resident ->
  prev:int array ->
  Wgraph.t ->
  Types.constraints ->
  Graph_edit.op list ->
  repartition
(** [repartition ~prev g c ops] edits [g] by [ops] and partitions the
    result, seeded from [prev] (the labelling of [g], length
    [Wgraph.n_nodes g], labels in [0 .. c.k - 1]). [workspace] backs
    hole seeding and the tabu rescue, and the refinement state too when
    no [resident] is given — a daemon worker passes its resident
    workspace so the steady state allocates nothing.
    Deterministic for fixed [(config.seed, prev, g, ops)]; passing a
    [resident] or not never changes the answer.

    With [resident]: if the slot holds the state of exactly this [g]
    and [prev] (physical equality — the [rp_graph] and [rp_result.part]
    of the call that filled it, which the caller must not mutate) under
    the same constraints, and the
    batch keeps node ids stable (no [Add_node]/[Remove_node]), that
    state is patched by the edit
    ({!Ppnpart_partition.Part_state.rebase}, O(edit · (degree + k)))
    instead of rebuilt from the labels (O(n·k + m)); the request counts
    [gp.repartition.resident]. Every other request counts
    [gp.repartition.rebuilt] and [gp.repartition.rebuilt.<reason>]:
    [gate] (edit-ratio gate or a degenerate class), [node_ids] (nodes
    added or removed), [fallback] (the last answer came from the tabu
    rescue or the full pipeline, not from the state), [certificate]
    (the last answer's certificate disagreed with its state) or
    [new_state] (nothing held for this graph and labelling). After the
    call the slot holds this answer's state when the answer is the
    refined state's own labels, and is empty otherwise.
    @raise Invalid_argument on a [prev] that is not a valid labelling
    of [g].
    @raise Ppnpart_partition.Graph_edit.Invalid_edit on a malformed
    edit batch (the slot is left as it was). *)
