(** Streaming / restreaming K-way partitioning (DESIGN.md §6.5).

    A Battaglino-style one-pass partitioner for graphs that dwarf the
    multilevel path: nodes are visited in a fixed order and each is
    assigned in one O(degree + k) step that maximizes neighbour affinity
    minus an [a · (load/Rmax)^g] penalty, with edge weight that would
    land on a Bmax-saturated part pair discounted from the affinity.
    The whole live state is O(n + k + k²) words — labels, per-part
    loads and the pairwise bandwidth matrix — allocated from a
    {!Workspace}, so an O(edges)-time pass over millions of edges runs
    in a few megabytes of scratch.

    Cost of one visit: O(degree) to gather the neighbour parts, O(c·t)
    to score the c ≤ t + 1 candidates against the t neighbour parts
    (O(c) when Bmax is unbounded), and O(k) only when the node lands on
    the least-loaded part, which is tracked rather than rescanned. The
    common case calls no libm [pow] and allocates nothing: candidates
    are scored with [r *. sqrt r] and the winner is certified against
    an error margin; a visit the margin cannot decide is rescored with
    the exact [r ** 1.5] (counter [stream.exact_rescores]). Labels are
    those of the exact objective, bit for bit (DESIGN.md §6.5).

    Restreaming: up to [max_iterations] passes, the penalty multiplier
    escalating by [ta = 1.7] per pass; a pass that moves no node is a
    fixed point and stops early. The result is a pure function of
    (graph, constraints, max_iterations) — no rng, no domain pool —
    hence bit-identical across runs and job counts.

    Quality is deliberately traded for time and memory: the multilevel
    {!Ppnpart_core.Gp} pipeline remains the quality oracle, and hybrid
    mode ([Config.Hybrid]) feeds this partitioner's output to
    {!Refine_constrained} instead of running a full V-cycle. *)

open Ppnpart_graph

type stats = {
  iterations : int;  (** streaming passes actually run (≥ 1) *)
  moved : int array;
      (** nodes assigned to a different part than before, per pass;
          entry 0 counts first-time assignments as 0 moves *)
  converged : bool;
      (** a restream pass moved nothing — the assignment is a fixed
          point of the objective *)
  state_words : int;
      (** live partitioner state in words: n + k² + 3k + 1 — the
          O(n + k + k²) bound, measured *)
  goodness : Metrics.goodness;
      (** the labels' goodness, read from the stream's own loads and
          bandwidth matrix in O(k²) *)
}

val default_iterations : int
(** 3 — one stream plus two restreams. *)

val max_iterations_limit : int
(** 1000 — the most passes {!partition} runs. The penalty weight grows
    as [1.7^pass]: it is about 10{^230} here and overflows a float past
    ~1300 passes, after which every score is NaN. *)

val partition :
  ?workspace:Workspace.t ->
  ?max_iterations:int ->
  Wgraph.t ->
  Types.constraints ->
  int array * stats
(** [partition g c] streams [g] into [c.k] parts and returns a fresh
    label array (always a valid partition: every label in
    [0 .. k - 1]) with the run's statistics. Feasibility is best-effort
    — constraints shape the objective but are not enforced; check the
    result's {!Metrics.goodness} or polish it with
    {!Refine_constrained}.
    @raise Invalid_argument if [max_iterations < 1] or
    [max_iterations > max_iterations_limit]. *)

val seed_partial :
  ?workspace:Workspace.t -> Wgraph.t -> Types.constraints -> int array -> int
(** [seed_partial g c part] fills every [-1] entry of [part] in place —
    in ascending node order, by the iteration-0 streaming objective
    scored against a state initialized from the already-assigned labels
    — and returns how many nodes it seeded. This is the label-projection
    repair step of incremental repartitioning
    ({!Ppnpart_core.Gp.repartition}): nodes surviving a graph edit keep
    their old part, and only the added/evicted holes are placed.
    Sequential and rng-free like {!partition}.
    @raise Invalid_argument on a wrong-length array or an entry outside
    [-1 .. k - 1]. *)
