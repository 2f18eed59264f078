(** Weighted undirected graphs in compressed sparse row (CSR) form.

    This is the representation every partitioning kernel in this repository
    runs on, mirroring the METIS layout: [xadj] indexes into [adjncy]/[adjwgt]
    so the neighbours of node [u] live at positions
    [xadj.(u) .. xadj.(u+1) - 1]. Each undirected edge is stored twice, once
    per endpoint. Node weights model FPGA resources consumed by a process;
    edge weights model sustained FIFO bandwidth between two processes
    (Section I of the paper).

    Values of type {!t} are immutable once built. Every edge-list
    constructor ({!build}, {!of_edges}, {!induced}, {!relabel}) normalizes
    through {!of_soa_edges}; {!of_csr} and {!validate} share one O(n + m)
    checker. *)

type t = private {
  n : int;  (** number of nodes *)
  xadj : int array;  (** length [n + 1]; CSR row pointers *)
  adjncy : int array;  (** length [2m]; neighbour lists *)
  adjwgt : int array;  (** length [2m]; edge weights, parallel to [adjncy] *)
  vwgt : int array;  (** length [n]; node weights (resources) *)
}

val build : ?vwgt:int array -> Edge_list.t -> t
(** [build ~vwgt edges] is {!of_soa_edges} over the recorded edges:
    parallel edges merged by weight addition, self loops dropped, every
    adjacency slice sorted. [vwgt] defaults to all-ones.
    @raise Invalid_argument ["Wgraph.build: ..."] if [vwgt] has the wrong
    length or a negative entry. *)

val of_edges : ?vwgt:int array -> int -> (int * int * int) list -> t
(** [of_edges n edges] is [build] over a fresh edge list; convenience for
    tests and examples. *)

val of_csr :
  ?vwgt:int array ->
  n:int ->
  xadj:int array ->
  adjncy:int array ->
  adjwgt:int array ->
  unit ->
  t
(** [of_csr ~n ~xadj ~adjncy ~adjwgt ()] adopts ready-made CSR arrays
    without copying them — the caller transfers ownership and must not
    mutate them afterwards. The arrays are validated in one O(n + m) sweep:
    row pointers monotone and exhaustive, every adjacency slice strictly
    ascending (sorted, duplicate-free), neighbours in range, no self
    loops, non-negative weights, and ids/weights symmetric. [vwgt]
    defaults to all-ones and is copied like in {!build}.
    @raise Invalid_argument naming the first violation. *)

val unsafe_of_csr :
  ?vwgt:int array ->
  n:int ->
  xadj:int array ->
  adjncy:int array ->
  adjwgt:int array ->
  unit ->
  t
(** Like {!of_csr} but skips every structural check, and adopts [vwgt]
    without copying it. Strictly for kernels whose output is CSR-valid by
    construction and covered by a differential oracle — {!of_csr} remains
    the constructor for anything externally sourced. Handing this
    malformed arrays breaks the {!t} invariants silently. *)

val of_splice :
  t ->
  ?node_map:int array ->
  vwgt:int array ->
  xadj:int array ->
  adjncy:int array ->
  adjwgt:int array ->
  rows:int array ->
  unit ->
  t
(** [of_splice base ?node_map ~vwgt ~xadj ~adjncy ~adjwgt ~rows ()]
    adopts the CSR arrays of an edited copy of [base], like
    {!unsafe_of_csr} ([n] is [|vwgt|]), after a check that costs
    O(|rows| · degree · log degree) instead of {!of_csr}'s O(n + m).

    [node_map.(u)] is the base node that result node [u] came from, or
    [-1] for an added node, strictly ascending over its base entries;
    without it, base node [x] keeps id [x] and nodes from
    [n_nodes base] on are added. [rows], strictly ascending, lists every
    result node whose row or weight may differ from its base node's,
    and every added node. The caller guarantees that every other row is
    its base row renumbered through the map, with the base weight.

    Under that contract the check proves what {!of_csr} proves: each
    listed row is strictly ascending, in range, loop-free and
    non-negative; each of its entries has a mirror of equal weight; each
    base neighbour outside [rows] is still listed with its base weight;
    and every base neighbour of a removed node is listed. With
    [node_map], it adds an O(n) pass.
    @raise Invalid_argument naming the first violation with {!of_csr}'s
    message, under the prefix ["Wgraph.of_splice: "]. *)

val of_soa_edges :
  ?vwgt:int array -> int -> src:int array -> dst:int array -> wgt:int array -> t
(** [of_soa_edges n ~src ~dst ~wgt] bulk-builds the graph from one
    undirected edge per index of the three parallel arrays, with
    the normalization every edge-list constructor shares — parallel edges
    (either orientation) merge by weight addition, self loops are dropped —
    without materializing a single tuple: counting sort into CSR, then an
    in-place int-key sort and merge per adjacency slice.
    @raise Invalid_argument on length mismatch, out-of-range node or
    negative weight. *)

val n_nodes : t -> int
val n_edges : t -> int
(** Number of undirected edges (each counted once). *)

val degree : t -> int -> int
(** Number of distinct neighbours of a node. *)

val node_weight : t -> int -> int
val total_node_weight : t -> int

val total_edge_weight : t -> int
(** Sum of weights over undirected edges (each counted once). *)

val weighted_degree : t -> int -> int
(** Sum of incident edge weights. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] applies [f v w] for every edge [{u, v}] of weight
    [w], in increasing order of [v]. *)

val fold_neighbors : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a

val edge_weight : t -> int -> int -> int
(** [edge_weight g u v] is the weight of edge [{u, v}], or [0] if absent.
    O(log (degree u)): adjacency slices are sorted by neighbour id at
    build time and looked up by binary search. *)

val mem_edge : t -> int -> int -> bool
(** O(log (degree u)), like {!edge_weight}. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** Iterates every undirected edge once, with [u < v]. *)

val fold_edges : t -> ('a -> int -> int -> int -> 'a) -> 'a -> 'a

val edges : t -> (int * int * int) list
(** All undirected edges as [(u, v, w)] with [u < v], sorted. *)

val components : t -> int array * int
(** [components g] labels each node with a component id in [0 .. c-1] and
    returns the count [c]. *)

val is_connected : t -> bool

val bfs_order : t -> int -> int array
(** [bfs_order g src] is the sequence of nodes reachable from [src] in BFS
    order (length = size of [src]'s component). *)

val induced : t -> int array -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] (which must be
    duplicate-free) together with the map from new ids to original ids
    (i.e. [nodes] itself, copied). *)

val relabel : t -> int array -> t
(** [relabel g perm] renames node [i] to [perm.(i)] ([perm] must be a
    permutation). Used to randomize node order in tests. *)

val validate : t -> unit
(** Internal consistency check: {!of_csr}'s O(n + m) sweep over [g]'s
    arrays — row pointers, strictly ascending slices, neighbours in range,
    no self loops, non-negative weights, symmetric ids and weights — plus
    the length and sign of [vwgt].
    @raise Invalid_argument naming the first violation with {!of_csr}'s
    message, under the prefix ["Wgraph.validate: "]. *)

val equal : t -> t -> bool
(** Structural equality up to neighbour ordering. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: one line per node with weights and adjacency. *)

val summary : t -> string
(** One-line ["n=.. m=.. vwgt=.. ewgt=.."] description. *)
