(** Gain buckets — the Fiduccia–Mattheyses data structure.

    Constant-time insert / remove / gain-adjust and amortized-fast extraction
    of a maximum-gain node, implemented as an array of doubly linked lists
    indexed by gain, exactly the "modern data structures" that let FM reach
    a linear-time pass (Section II.A.2 of the paper). An occupancy bitmap
    over the gain slots lets the maximum search skip 32 empty slots per
    word read.

    Gains must stay within [-max_gain .. max_gain] declared at creation
    (for graph partitioning, the weighted degree of the node bounds its
    gain). *)

type t

val create : n:int -> max_gain:int -> t
(** Buckets for nodes [0 .. n-1]. *)

val insert : t -> int -> int -> unit
(** [insert t node gain].
    @raise Invalid_argument if [node] is already present or the gain is out
    of range. *)

val remove : t -> int -> unit
(** @raise Invalid_argument if absent. *)

val adjust : t -> int -> int -> unit
(** [adjust t node new_gain] — remove + reinsert, O(1). *)

val mem : t -> int -> bool
val gain : t -> int -> int
(** @raise Invalid_argument if absent. *)

val pop_max : t -> (int * int) option
(** Remove and return a node of maximal gain (FIFO within a gain level is
    not guaranteed; ties break by bucket order). *)

val peek_max : t -> (int * int) option
val cardinal : t -> int
val is_empty : t -> bool

val max_gain : t -> int
(** The gain bound declared at creation. *)

val fits : t -> n:int -> max_gain:int -> bool
(** Whether this structure can serve nodes [0 .. n-1] with gains in
    [-max_gain .. max_gain]. A bucket built with a larger bound works for
    any smaller one (slots are offset by the creation-time bound, which
    is monotone in the gain), so a workspace can reuse one bucket across
    graphs after {!clear}. *)

val clear : t -> unit
(** Empty the structure. Costs the nodes left plus one read per 32 slots
    between the highest and the lowest non-empty one, not O(capacity). *)
