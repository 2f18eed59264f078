(* Reference streaming partitioner: [Stream.partition] and
   [Stream.seed_partial] as they stood before the per-node step moved
   onto a certified square-root filter, kept as the differential oracle
   of the shipped kernel. Every candidate is scored with [ratio ** gamma]
   through a per-visit [score] closure, the least-loaded part is found
   by a scan of all k loads on every visit, and [seed_partial] holds its
   own copy of the scorer. Only the workspace and the observability
   calls are gone: the state is freshly allocated per call. A weight-0
   edge is skipped like an absent one, so a part enters [touched] only
   when its affinity turns nonzero.

   Usage: [Stream_oracle.partition ~max_iterations g c] against
   [Stream.partition] — labels, [iterations] and [moved] must agree bit
   for bit — and [Stream_oracle.seed_partial g c part] against
   [Stream.seed_partial] on a copy of the same label array. *)

open Ppnpart_graph
open Ppnpart_partition

let gamma = 1.5
let ta = 1.7

let excess_over bound v = if v > bound then v - bound else 0

let partition ?(max_iterations = Stream.default_iterations) g
    (c : Types.constraints) =
  if max_iterations < 1 then
    invalid_arg "Stream.partition: max_iterations < 1";
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  let bmax = c.Types.bmax and rmax = c.Types.rmax in
  let part = Array.make n (-1) in
  let load = Array.make k 0 in
  let bw = Array.make (k * k) 0 in
  let conn = Array.make k 0 in
  let touched = Array.make k 0 in
  let total_vw = Wgraph.total_node_weight g in
  let total_ew = Wgraph.total_edge_weight g in
  let rscale =
    float_of_int
      (max 1
         (if rmax = max_int then (total_vw + k - 1) / max 1 k else rmax))
  in
  let a0 =
    sqrt 2.0 *. 2.0 *. float_of_int total_ew /. float_of_int (max 1 n)
  in
  let a0 = if a0 <= 0.0 then sqrt 2.0 else a0 in
  let moved_per_iter = Array.make max_iterations 0 in
  let visit ~a_i ~bw_w u =
    let w_u = Wgraph.node_weight g u in
    let old = part.(u) in
    let nt = ref 0 in
    Wgraph.iter_neighbors g u (fun v w ->
        let q = part.(v) in
        if q >= 0 && w > 0 then begin
          if conn.(q) = 0 then begin
            touched.(!nt) <- q;
            incr nt
          end;
          conn.(q) <- conn.(q) + w
        end);
    if old >= 0 then begin
      load.(old) <- load.(old) - w_u;
      for i = 0 to !nt - 1 do
        let r = touched.(i) in
        if r <> old then begin
          let b = bw.((old * k) + r) - conn.(r) in
          bw.((old * k) + r) <- b;
          bw.((r * k) + old) <- b
        end
      done
    end;
    let score q =
      let aff = conn.(q) in
      let disc = ref 0 in
      for i = 0 to !nt - 1 do
        let r = touched.(i) in
        if r <> q then begin
          let cur = bw.((q * k) + r) in
          disc :=
            !disc + excess_over bmax (cur + conn.(r)) - excess_over bmax cur
        end
      done;
      if rmax <> max_int then
        disc :=
          !disc
          + excess_over rmax (load.(q) + w_u)
          - excess_over rmax load.(q);
      let ratio = float_of_int (load.(q) + w_u) /. rscale in
      float_of_int aff
      -. (bw_w *. float_of_int !disc)
      -. (a_i *. (ratio ** gamma))
    in
    let light = ref 0 in
    for q = 1 to k - 1 do
      if load.(q) < load.(!light) then light := q
    done;
    let best = ref !light and best_s = ref (score !light) in
    for i = 0 to !nt - 1 do
      let q = touched.(i) in
      if q <> !light then begin
        let s = score q in
        if s > !best_s || (s = !best_s && q < !best) then begin
          best := q;
          best_s := s
        end
      end
    done;
    let t = !best in
    part.(u) <- t;
    load.(t) <- load.(t) + w_u;
    for i = 0 to !nt - 1 do
      let r = touched.(i) in
      if r <> t then begin
        let b = bw.((t * k) + r) + conn.(r) in
        bw.((t * k) + r) <- b;
        bw.((r * k) + t) <- b
      end;
      conn.(r) <- 0
    done;
    old >= 0 && t <> old
  in
  let iterations = ref 0 in
  let converged = ref false in
  let it = ref 0 in
  while !it < max_iterations && not !converged do
    let iter = !it in
    let sched = ta ** float_of_int iter in
    let a_i = a0 *. sched in
    let bw_w = a0 *. sched in
    let moved = ref 0 in
    for u = 0 to n - 1 do
      if visit ~a_i ~bw_w u then incr moved
    done;
    moved_per_iter.(iter) <- !moved;
    incr iterations;
    if iter > 0 && !moved = 0 then converged := true;
    incr it
  done;
  ( part,
    {
      Stream.iterations = !iterations;
      moved = Array.sub moved_per_iter 0 !iterations;
      converged = !converged;
      state_words = n + (k * k) + (3 * k);
      goodness = Metrics.goodness g c part;
    } )

let seed_partial g (c : Types.constraints) part =
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  if Array.length part <> n then
    invalid_arg "Stream.seed_partial: label array has wrong length";
  Array.iter
    (fun p ->
      if p < -1 || p >= k then
        invalid_arg "Stream.seed_partial: label out of range")
    part;
  let bmax = c.Types.bmax and rmax = c.Types.rmax in
  let load = Array.make k 0 in
  let bw = Array.make (k * k) 0 in
  let conn = Array.make k 0 in
  let touched = Array.make k 0 in
  for u = 0 to n - 1 do
    let p = part.(u) in
    if p >= 0 then load.(p) <- load.(p) + Wgraph.node_weight g u
  done;
  Wgraph.iter_edges g (fun u v w ->
      let p = part.(u) and q = part.(v) in
      if p >= 0 && q >= 0 && p <> q then begin
        bw.((p * k) + q) <- bw.((p * k) + q) + w;
        bw.((q * k) + p) <- bw.((q * k) + p) + w
      end);
  let total_vw = Wgraph.total_node_weight g in
  let total_ew = Wgraph.total_edge_weight g in
  let rscale =
    float_of_int
      (max 1
         (if rmax = max_int then (total_vw + k - 1) / max 1 k else rmax))
  in
  let a0 =
    sqrt 2.0 *. 2.0 *. float_of_int total_ew /. float_of_int (max 1 n)
  in
  let a0 = if a0 <= 0.0 then sqrt 2.0 else a0 in
  let a_i = a0 and bw_w = a0 in
  let seeded = ref 0 in
  for u = 0 to n - 1 do
    if part.(u) = -1 then begin
      let w_u = Wgraph.node_weight g u in
      let nt = ref 0 in
      Wgraph.iter_neighbors g u (fun v w ->
          let q = part.(v) in
          if q >= 0 && w > 0 then begin
            if conn.(q) = 0 then begin
              touched.(!nt) <- q;
              incr nt
            end;
            conn.(q) <- conn.(q) + w
          end);
      let score q =
        let aff = conn.(q) in
        let disc = ref 0 in
        for i = 0 to !nt - 1 do
          let r = touched.(i) in
          if r <> q then begin
            let cur = bw.((q * k) + r) in
            disc :=
              !disc + excess_over bmax (cur + conn.(r)) - excess_over bmax cur
          end
        done;
        if rmax <> max_int then
          disc :=
            !disc
            + excess_over rmax (load.(q) + w_u)
            - excess_over rmax load.(q);
        let ratio = float_of_int (load.(q) + w_u) /. rscale in
        float_of_int aff
        -. (bw_w *. float_of_int !disc)
        -. (a_i *. (ratio ** gamma))
      in
      let light = ref 0 in
      for q = 1 to k - 1 do
        if load.(q) < load.(!light) then light := q
      done;
      let best = ref !light and best_s = ref (score !light) in
      for i = 0 to !nt - 1 do
        let q = touched.(i) in
        if q <> !light then begin
          let s = score q in
          if s > !best_s || (s = !best_s && q < !best) then begin
            best := q;
            best_s := s
          end
        end
      done;
      let t = !best in
      part.(u) <- t;
      load.(t) <- load.(t) + w_u;
      for i = 0 to !nt - 1 do
        let r = touched.(i) in
        if r <> t then begin
          let b = bw.((t * k) + r) + conn.(r) in
          bw.((t * k) + r) <- b;
          bw.((r * k) + t) <- b
        end;
        conn.(r) <- 0
      done;
      incr seeded
    end
  done;
  !seeded
