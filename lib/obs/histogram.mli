(** Sparse log-bucketed histograms with deterministic merge.

    Buckets are quarter-octaves (relative width [2^(1/4)], boundaries on
    powers of two); bucket 0 collects non-positive values. Counts are
    exact integers, so merging histograms is associative and
    order-independent for counts; the floating-point [sum] is merged
    with one addition per {!merge_into} call, making the merged value a
    pure function of merge order — {!Metrics_registry} folds task shards
    in task order, which is what keeps registry snapshots bit-identical
    at every pool width. *)

type t

val create : unit -> t

val observe : t -> float -> unit
(** Record one observation. O(1); allocates only on a bucket's first
    hit. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s observations to [dst]. [src] is
    unchanged. *)

type snapshot = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  buckets : (int * int) array;
      (** (bucket index, count), ascending by index; counts > 0 *)
}

val snapshot : t -> snapshot

val quantile : snapshot -> float -> float
(** [quantile s q] is the nearest-rank [q]-quantile ([0. <= q <= 1.]):
    the lower bound of the bucket containing the rank-th observation,
    clamped to the observed [min, max]. Exact for single or repeated
    values and for values on bucket boundaries; otherwise within one
    bucket width (~19%). [nan] when empty. *)

val upper_bound : int -> float
(** Inclusive upper bound of a bucket (0. for bucket 0); the
    OpenMetrics [le] label. *)
