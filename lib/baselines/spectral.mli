(** Spectral bisection (Section II.B of the paper).

    The Fiedler vector — the eigenvector of the graph Laplacian's second
    smallest eigenvalue — is computed by power iteration on the spectrum
    shift [cI - L] with deflation of the constant eigenvector; nodes are
    then split at the weighted median of their Fiedler coordinates. No
    external linear algebra is used. *)

open Ppnpart_graph

val fiedler : Wgraph.t -> float array
(** Approximate Fiedler vector (unit norm, orthogonal to the all-ones
    vector) after 300 power iterations. For a disconnected graph the
    result separates components (the second eigenvalue is 0). *)

val bisect : ?fraction:float -> Wgraph.t -> int array * int
(** Split at the node-weight quantile [fraction] (default 0.5) of the
    Fiedler ordering; returns the partition and its cut. Deterministic. *)

val kway : Random.State.t -> Wgraph.t -> k:int -> int array
(** Recursive spectral bisection to [k] parts (weight-proportional splits,
    any [k >= 1]). The random state is only used to pick sides for
    zero-extent splits of tiny subgraphs. *)
