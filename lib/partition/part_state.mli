(** Incrementally maintained partition state.

    Holds a partition together with everything the constrained local
    searches need in O(1)-amortized per move: the k x k pairwise bandwidth
    matrix, per-part resource loads and member counts, and the running raw
    excess totals and cut. Shared by the greedy/FM refinement
    ({!Refine_constrained}) and tabu search ({!Refine_tabu}).

    It also maintains the boundary-refinement caches (DESIGN.md §6.4):
    per-node connectivity rows and external degrees patched in O(degree)
    per move, per-part member chains, and a dense {e active set} — the
    nodes with an external neighbour or sitting in a part whose load
    exceeds Rmax, i.e. exactly the nodes that can have a strictly
    improving move. All of it lives in a {!Workspace} (passed in or
    private), so repeated states across un-coarsening levels and V-cycles
    allocate nothing in steady state. *)

open Ppnpart_graph

type t = private {
  g : Wgraph.t;
  c : Types.constraints;
  part : int array;  (** exact length n *)
  bw : int array array;  (** entries [(p, q)] valid for p, q < k *)
  load : int array;  (** entries valid for p < k *)
  members : int array;  (** entries valid for p < k *)
  mutable bw_excess : int;
  mutable res_excess : int;
  mutable cut : int;
  ws : Workspace.t;  (** backing store of every cache below *)
  conn : int array;
      (** connectivity rows, [u*k + q] = u's weight toward part [q] *)
  ed : int array;  (** external degree per node *)
  active : int array;  (** dense active list, first [n_active] entries *)
  apos : int array;  (** position in [active], −1 when inactive *)
  mutable n_active : int;
  pl_next : int array;  (** part member chains, forward links *)
  pl_prev : int array;  (** back links; [−p − 1] marks head of part [p] *)
  pl_head : int array;  (** chain head per part, −1 when empty *)
  mutable max_wdeg : int;
      (** [max 1 (max_u (Wgraph.weighted_degree g u))], the FM gain-scale
          bound of {!Refine_constrained}: computed by the sweeps that
          build the connectivity rows, patched by {!rebase}, and
          unchanged by moves, which never change a weighted degree *)
}

val init :
  ?workspace:Workspace.t -> Wgraph.t -> Types.constraints -> int array -> t
(** Copies the partition; the caller's array is not mutated.
    [workspace] supplies the backing store (a private one is created
    when omitted). *)

val init_projected : map:int array -> t -> Wgraph.t -> t
(** [init_projected ~map coarse fine_g] is the fine-graph state whose
    labels are the projection of [coarse] through [map] ([fine part u =
    coarse part (map u)]). Contraction preserves cut, pairwise bandwidth
    and per-part loads exactly, so those are inherited — reusing the
    coarse state's arrays in place — rather than recomputed; only member
    counts and the per-node caches are rebuilt (O(m + nk)). The coarse
    state is {e consumed}: it shares storage with the result and must not
    be used afterwards. Runs under a [refine.state_init] span.
    @raise Invalid_argument on a wrong-length [map]. *)

val rebase : t -> Wgraph.t -> touched:int array -> t
(** [rebase st g' ~touched] is the state of the same labels on [g'], an
    id-stable edit of [st.g] (same node count, node [u] of [g'] is node
    [u] of [st.g]) in which only the nodes of [touched] (ascending, no
    duplicates — {!Graph_edit.stats.touched_nodes}) changed weight or
    adjacency. Equal, field by field and in active-set membership, to
    [init g' st.c (snapshot st)], at a cost of
    O(Σ_touched degree · log |touched| + |touched| · k + k²) plus the
    members of any part whose load crosses Rmax, instead of O(n·k + m).
    The maximum weighted degree is patched from the touched rows; it is
    rescanned in O(n) only when a touched node that held it got
    lighter.
    Active-list and chain order may differ from [init]'s; no consumer
    reads them. Like {!init_projected} it patches [st]'s storage in
    place: [st] is consumed and must not be used afterwards.
    @raise Invalid_argument when the node counts differ. *)

val connectivity : t -> int array -> int -> unit
(** [connectivity st conn u] fills [conn] (length [k]) with [u]'s total
    edge weight toward every part — a blit of the cached row. *)

val apply_move : t -> int -> int -> int array -> unit
(** Applies the move and updates every maintained quantity. [conn] must be
    [u]'s current connectivity (as produced by {!connectivity}). Also
    patches the connectivity rows and external degrees of [u]'s
    neighbours, moves [u] between member chains and refreshes the active
    set — O(degree + k) total; an Rmax crossing refreshes the members of
    the crossing part via its chain. The cache patch reads true edge
    weights, never [conn]. *)

val goodness : t -> Metrics.goodness
val violation : t -> int
(** Normalized violation of the current state (0 iff feasible). *)

val best_target : t -> int array -> int -> int * int * int
(** [best_target st conn u] is [(violation', cut', target)] for the best
    target part of [u]; [target = -1] when no legal target exists. A move
    that would empty [u]'s part is considered only when it strictly
    reduces the violation — otherwise every part stays occupied, but a
    frozen singleton may always evacuate to repair an Rmax/Bmax
    violation (relevant on coarse graphs with n close to k). The parts
    [u] is connected to are collected once (into the workspace's [rf_nz]
    scratch), and each target is scored from them: O(k · nnz), so O(k)
    for an interior node ([ed u = 0]). Ties keep the lowest target. *)

val best_global_move :
  ?skip:(int -> bool) ->
  ?admit:(int -> int -> int -> bool) ->
  t ->
  int array ->
  (int * int) option
(** [Some (u, target)]: of every node [u] that [skip u] does not rule
    out before scoring, the {!best_target} of lowest [(violation', cut')]
    for which [admit u violation' cut'] holds, lowest [u] on ties; [None]
    when there is none. O(n·k) to O(n·k²); clobbers [conn]. *)

val snapshot : t -> int array
(** Copy of the current partition. *)
