(** FM-based refinement toward the paper's bandwidth and resource
    constraints.

    This is the local search the GP algorithm runs after initial
    partitioning and at every un-coarsening level (Sections IV.B/IV.C):
    nodes move between partitions "as far as constraints met". A move is
    accepted when it strictly improves the partition's
    {!Metrics.goodness} — first the normalized constraint violation
    (pairwise bandwidth over [bmax], per-part resources over [rmax]), then
    the global cut. The pairwise bandwidth matrix and part loads are
    maintained incrementally, so a pass costs O(moves * k + n * k) rather
    than recomputing k x k matrices from scratch.

    The tentative (hill-climbing) pass selects moves from a {!Bucket}
    gain queue with lazy re-evaluation of stale priorities, so a full
    pass costs O(m (d_avg + k^2)) instead of the former O(n^2 k) — which
    is why it now runs at every level on graphs of any size (the old
    512-node gate is gone). On graphs up to 512 nodes, where an exact
    O(n^2 k) pass is sub-millisecond, {!refine} additionally rescues a
    stalled bucket pass with one exact-global-selection pass: with few
    parts a single move shifts the violation gain of every node (the
    pairwise bandwidth totals are global), and the bucket pass's
    neighbour-only re-gains can stall in a basin the exact selection
    escapes.

    Unlike the balance-driven refiners, this one never empties a part (the
    network must occupy all K FPGAs). *)

open Ppnpart_graph

val fm_pass : Part_state.t -> bool
(** One tentative FM pass over the state: every node moves at most once,
    worsening moves are allowed, and the state is rolled back to the best
    prefix of the move sequence. Returns [true] when the pass strictly
    improved the goodness. Exposed for benchmarks and tests; most callers
    want {!refine}. *)

val exact_fm_pass : Part_state.t -> bool
(** Like {!fm_pass} but with exact global move selection (a full rescan
    of every unlocked node before each move, O(n^2 k)). The escape hatch
    {!refine} uses on graphs up to 512 nodes; exposed so the differential
    fuzz harness can cross-check the bucket pass against it. *)

val refine_state : ?max_passes:int -> Random.State.t -> Part_state.t -> unit
(** Refine a state in place — the entry point of the boundary-driven
    un-coarsening loop, fed by {!Part_state.init_projected} so that
    neither the state nor the refinement scratch is reallocated between
    levels. Same rounds as {!refine}; runs under the [refine.constrained]
    span and emits the [refine.active.size] / [refine.active.fraction]
    observability counters. *)

val refine :
  ?max_passes:int ->
  ?workspace:Workspace.t ->
  Random.State.t ->
  Wgraph.t ->
  Types.constraints ->
  int array ->
  int array * Metrics.goodness
(** [refine rng g c part] returns the improved copy and its goodness.
    [max_passes] defaults to 16; each round runs greedy strictly-improving
    sweeps followed by one tentative {!fm_pass}, and stops when the FM
    pass no longer improves the goodness. [workspace] backs the state and
    all refinement scratch (a private workspace is used when omitted).
    The result, goodness and rng consumption are bit-identical to the
    cache-less full-scan refiner in [test/oracle/refine_oracle.ml] (the
    fuzz harness asserts this across its corpus). *)
