(** Mutable edge-list accumulator used to assemble weighted undirected graphs.

    Edges are recorded as unordered pairs; duplicates (including the reversed
    orientation) are merged by {b summing} their weights when the list is
    normalized — the merge rule the paper applies during coarsening. Self
    loops are dropped at normalization time (a FIFO from a process to itself
    never crosses a partition boundary, so it carries no mapping cost). *)

type t

val create : int -> t
(** [create n] is an empty accumulator over nodes [0 .. n-1]. *)

val n_nodes : t -> int

val add : t -> int -> int -> int -> unit
(** [add t u v w] records an undirected edge [{u, v}] of weight [w].
    @raise Invalid_argument if [u] or [v] is out of range or [w < 0]. *)

val add_all : t -> (int * int * int) list -> unit

val normalized : t -> (int * int * int) array
(** [normalized t] is the deduplicated edge array: each unordered pair appears
    once as [(min u v, max u v, total_weight)], sorted lexicographically; self
    loops removed. *)
