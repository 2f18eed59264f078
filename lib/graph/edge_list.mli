(** Mutable edge-list accumulator used to assemble weighted undirected graphs.

    Edges are recorded as given, in three flat parallel arrays — no tuple
    per edge. {!Wgraph.build} turns them into a CSR graph with
    {!Wgraph.of_soa_edges}'s normalization: duplicates (including the
    reversed orientation) are merged by {b summing} their weights — the
    merge rule the paper applies during coarsening — and self loops are
    dropped (a FIFO from a process to itself never crosses a partition
    boundary, so it carries no mapping cost). *)

type t

val create : int -> t
(** [create n] is an empty accumulator over nodes [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val n_nodes : t -> int

val add : t -> int -> int -> int -> unit
(** [add t u v w] records an undirected edge [{u, v}] of weight [w].
    Amortized O(1).
    @raise Invalid_argument if [u] or [v] is out of range or [w < 0]. *)

val add_all : t -> (int * int * int) list -> unit

val to_soa : t -> int array * int array * int array
(** [to_soa t] is [(src, dst, wgt)]: fresh parallel arrays holding the
    recorded edges in insertion order, ready for {!Wgraph.of_soa_edges}. *)
