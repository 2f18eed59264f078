(* Log-bucketed histogram with exact deterministic merge.

   Buckets are quarter-octaves: bucket [i] (i >= 1) covers
   (2^((i-1-bias)/4), 2^((i-bias)/4)], so bucket boundaries land exactly
   on powers of 2 and relative bucket width is 2^(1/4) ~ 19%. Bucket 0
   collects non-positive values. Counts are ints, so merging is
   associative and order-independent; the running [sum] is a float whose
   merge order is fixed by the caller (task order under Exec.Pool),
   which keeps merged histograms bit-identical at every job count. *)

let sub_buckets = 4.

(* Offset keeping bucket indices positive down to values ~2^-256. *)
let bias = 1024

let bucket_of v =
  if v <= 0. then 0
  else
    let i = int_of_float (Float.floor (Float.log2 v *. sub_buckets)) + bias + 1 in
    if i < 1 then 1 else i

let lower_bound i =
  if i <= 0 then 0. else Float.pow 2. (float_of_int (i - 1 - bias) /. sub_buckets)

let upper_bound i =
  if i <= 0 then 0. else Float.pow 2. (float_of_int (i - bias) /. sub_buckets)

type t = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  buckets : (int, int ref) Hashtbl.t;
}

let create () =
  { count = 0; sum = 0.; vmin = infinity; vmax = neg_infinity; buckets = Hashtbl.create 16 }

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  let i = bucket_of v in
  match Hashtbl.find_opt h.buckets i with
  | Some r -> incr r
  | None -> Hashtbl.add h.buckets i (ref 1)

(* [merge_into dst src] folds [src] into [dst]. One float add per call,
   so folding sources in a fixed order gives a deterministic [sum]. *)
let merge_into dst src =
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.vmin < dst.vmin then dst.vmin <- src.vmin;
  if src.vmax > dst.vmax then dst.vmax <- src.vmax;
  Hashtbl.iter
    (fun i r ->
      match Hashtbl.find_opt dst.buckets i with
      | Some d -> d := !d + !r
      | None -> Hashtbl.add dst.buckets i (ref !r))
    src.buckets

type snapshot = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  buckets : (int * int) array;
      (** (bucket index, count), ascending by index; counts > 0 *)
}

let snapshot (h : t) =
  let bs =
    Hashtbl.fold (fun i r acc -> (i, !r) :: acc) h.buckets []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  {
    count = h.count;
    sum = h.sum;
    min = (if h.count = 0 then nan else h.vmin);
    max = (if h.count = 0 then nan else h.vmax);
    buckets = bs;
  }

(* Nearest-rank quantile over buckets: the answer is the lower bound of
   the bucket holding the rank-th observation, clamped to the observed
   [min, max]. Exact for repeated values, single observations, and
   values on bucket boundaries (powers of 2), which is what the tests
   pin down; otherwise within one bucket width (~19%) of exact. *)
let quantile (s : snapshot) q =
  if s.count = 0 then nan
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int s.count)) in
      if r < 1 then 1 else if r > s.count then s.count else r
    in
    let v = ref s.max in
    (try
       let cum = ref 0 in
       Array.iter
         (fun (i, c) ->
           cum := !cum + c;
           if !cum >= rank then begin
             v := lower_bound i;
             raise Exit
           end)
         s.buckets
     with Exit -> ());
    let v = !v in
    if v < s.min then s.min else if v > s.max then s.max else v
  end
