(** Reusable scratch memory for the coarsening kernels (DESIGN.md §6.3).

    A workspace owns the integer scratch arrays the CSR contraction and
    matching kernels need — dense coarse-neighbour marker and position
    tables, staging buffers for the coarse CSR under construction, and
    one SoA edge-buffer set per edge-sorting matching strategy. Arrays
    grow geometrically to the largest graph seen and are reused across
    coarsening levels and across V-cycle re-coarsenings, so the steady
    state allocates nothing but the coarse graphs themselves.

    Concurrency: a workspace must not be shared by concurrent
    {!Coarsen.contract} calls. The [he] and [km] buffer sets are
    disjoint, so the strategies of one {!Matching.best_of} race may run
    concurrently against a single workspace.

    Observability: every ensure call emits either a [coarsen.alloc]
    counter delta (words newly allocated) or a [workspace.reuse] tick
    (served entirely from existing capacity), unless the workspace is
    {!field-quiet}. *)

(** One SoA edge-buffer set: sources, destinations, weights, packed sort
    keys, and an optional shuffle permutation, all parallel. *)
type edge_bufs = {
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable e_wgt : int array;
  mutable e_key : int array;
  mutable e_perm : int array;
}

type t = {
  mutable mark : int array;
      (** per-coarse-node generation marks (never cleared; see
          {!next_gen}) *)
  mutable pos_tbl : int array;
      (** per-coarse-node write position into [cadj]/[cwgt], valid only
          when [mark] holds the current generation *)
  mutable gen : int;  (** current marker generation; 0 = never marked *)
  mutable cxadj : int array;  (** staging row pointers, length ≥ n' + 1 *)
  mutable cadj : int array;  (** staging coarse neighbours, length ≥ 2m *)
  mutable cwgt : int array;  (** staging coarse weights, parallel *)
  he : edge_bufs;  (** heavy-edge matching buffers *)
  km : edge_bufs;  (** k-means matching buffers *)
  ps_banks : int array array;
      (** two exact-length partition-label banks (see {!part_bank}) *)
  mutable ps_bank : int;  (** index of the bank handed out last *)
  mutable ps_bw : int array array;
      (** k×k pairwise bandwidth matrix backing store, capacity ≥ k rows *)
  mutable ps_load : int array;  (** per-part resource loads, length ≥ k *)
  mutable ps_members : int array;  (** per-part member counts, length ≥ k *)
  mutable pl_head : int array;
      (** per-part member-chain heads (−1 = empty), length ≥ k *)
  mutable ps_conn : int array;
      (** per-node connectivity rows, [u*k + q] = weight from [u] to part
          [q]; length ≥ n·k *)
  mutable ps_ed : int array;  (** per-node external degree, length ≥ n *)
  mutable ps_active : int array;
      (** dense active list (boundary ∪ over-Rmax parts), length ≥ n *)
  mutable ps_apos : int array;
      (** position of a node in [ps_active], −1 when inactive *)
  mutable pl_next : int array;  (** member-chain forward links *)
  mutable pl_prev : int array;
      (** member-chain back links; [−p − 1] marks the head of part [p] *)
  mutable rf_order : int array;  (** greedy sweep visit order, length ≥ n *)
  mutable rf_lock : int array;
      (** FM lock stamps: node [u] is locked in the current pass iff
          [rf_lock.(u) = rf_epoch] *)
  mutable rf_epoch : int;
      (** the current FM pass's lock stamp; each pass bumps it, which
          unlocks every node. 0 only before the first pass, so a grown
          (zeroed) [rf_lock] locks nothing. *)
  mutable rf_seed : int array;
      (** FM seed list (the active set, sorted), length ≥ n *)
  mutable rf_nz : int array;
      (** parts a node is connected to, for move scoring, length ≥ k *)
  mutable rf_moves_u : int array;  (** FM move journal: moved node *)
  mutable rf_moves_from : int array;  (** FM move journal: source part *)
  mutable rf_conn : int array;  (** shared connectivity row, length ≥ k *)
  mutable rf_tabu : int array;  (** tabu expiry steps, length ≥ n *)
  mutable rf_bucket : Bucket.t option;  (** reused FM gain bucket *)
  mutable st_load : int array;
      (** streaming per-part resource loads, length ≥ k *)
  mutable st_bw : int array;
      (** streaming pairwise bandwidth matrix, flat [p*k + q], length ≥ k² *)
  mutable st_conn : int array;
      (** streaming per-node connectivity scratch, length ≥ k *)
  mutable st_touched : int array;
      (** parts with nonzero [st_conn] for the node in flight, length
          ≥ k + 1: one spare slot for the stream's unconditional append *)
  mutable quiet : bool;
      (** record no allocation or reuse counters. Set on the V-cycle
          wave slots: what a slot must allocate depends on how many
          slots there are, i.e. on the pool width, and a trace must not
          (DESIGN.md §6.1). [false] on {!create}. *)
}

val create : unit -> t
(** An empty workspace; every array starts at size 0 and grows on first
    use. Cheap enough to create per task when no reuse is possible. *)

val ensure_contract : t -> coarse_nodes:int -> half_edges:int -> unit
(** Grow the contraction scratch to hold a coarse graph of
    [coarse_nodes] nodes whose directed adjacency cannot exceed
    [half_edges] entries (the fine graph's [2m] is always a safe
    bound). *)

val ensure_edges : t -> edge_bufs -> m:int -> perm:bool -> unit
(** [ensure_edges t bufs ~m ~perm] grows [bufs], one of [t]'s edge-buffer
    sets, to [m] edges; [perm] also grows the shuffle permutation
    buffer. *)

val next_gen : t -> int
(** A fresh marker generation: entries of [mark] not equal to the
    returned value are stale, so the tables never need clearing. *)

val ensure_state : t -> n:int -> k:int -> unit
(** Grow every {!Part_state} cache and refinement scratch array to an
    [n]-node, [k]-part instance. Emits [refine.alloc] (words grown) or
    [workspace.reuse]. *)

val ensure_stream : t -> k:int -> unit
(** Grow the {!Stream} scratch (loads, flat bandwidth matrix, per-node
    connectivity row and touched list) to a [k]-part instance. Together
    with one {!part_bank} label array this is the whole live state of a
    streaming run. Emits [stream.alloc] (words grown) or
    [workspace.reuse]. *)

val part_bank : t -> n:int -> int array
(** An exact-length-[n] partition label array. Alternates between two
    banks on every call, so the arrays of two consecutively initialized
    states never alias — the projection init reads coarse labels while
    writing fine ones. Contents are unspecified. *)

val bucket : t -> n:int -> max_gain:int -> Bucket.t
(** A cleared gain bucket serving nodes [0 .. n-1] with gains within
    [±max_gain]; reuses the cached bucket when it {!Bucket.fits}. *)

val words : t -> int
(** Total words currently owned, for tests and benchmarks. *)
