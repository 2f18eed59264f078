open Ppnpart_graph

let cut g part =
  Wgraph.fold_edges g
    (fun acc u v w -> if part.(u) <> part.(v) then acc + w else acc)
    0

let bandwidth_matrix g ~k part =
  let m = Array.make_matrix k k 0 in
  Wgraph.iter_edges g (fun u v w ->
      let p = part.(u) and q = part.(v) in
      if p <> q then begin
        m.(p).(q) <- m.(p).(q) + w;
        m.(q).(p) <- m.(q).(p) + w
      end);
  m

let max_local_bandwidth g ~k part =
  let m = bandwidth_matrix g ~k part in
  let best = ref 0 in
  for p = 0 to k - 1 do
    for q = p + 1 to k - 1 do
      if m.(p).(q) > !best then best := m.(p).(q)
    done
  done;
  !best

let part_resources g ~k part =
  let r = Array.make k 0 in
  for u = 0 to Wgraph.n_nodes g - 1 do
    r.(part.(u)) <- r.(part.(u)) + Wgraph.node_weight g u
  done;
  r

let max_resource g ~k part =
  Array.fold_left max 0 (part_resources g ~k part)

let imbalance g ~k part =
  let total = Wgraph.total_node_weight g in
  if total = 0 then 0.
  else
    float_of_int (k * max_resource g ~k part) /. float_of_int total

let bandwidth_excess g (c : Types.constraints) part =
  let m = bandwidth_matrix g ~k:c.Types.k part in
  let acc = ref 0 in
  for p = 0 to c.Types.k - 1 do
    for q = p + 1 to c.Types.k - 1 do
      if m.(p).(q) > c.Types.bmax then acc := !acc + m.(p).(q) - c.Types.bmax
    done
  done;
  !acc

let resource_excess g (c : Types.constraints) part =
  Array.fold_left
    (fun acc r -> if r > c.Types.rmax then acc + r - c.Types.rmax else acc)
    0
    (part_resources g ~k:c.Types.k part)

let feasible g c part =
  bandwidth_excess g c part = 0 && resource_excess g c part = 0

(* --- one-pass quality record ---

   Everything the evaluation reports, computed from one sweep over the
   CSR arrays. [goodness], [report], the CLI tables, bench and the run
   report all derive from this one record, so the quantities can never
   drift apart. It is also the certificate of every answer: an
   independent O(n + m) recomputation from (graph, labels) alone. *)

type quality = {
  cut : int;
  bandwidth : int array array;
  max_bandwidth : int;
  bw_excess : int;
  loads : int array;
  max_resources : int;
  res_excess : int;
  imbalance : float;
}

(* Each node adds its weight to its part's load and each crossing
   neighbour's edge weight to its own matrix row; the other endpoint
   fills the mirrored entry, so the matrix comes out symmetric. *)
let quality g (c : Types.constraints) part =
  let k = c.Types.k in
  let n = g.Wgraph.n in
  Types.check_partition ~n ~k part;
  let xadj = g.Wgraph.xadj
  and adjncy = g.Wgraph.adjncy
  and adjwgt = g.Wgraph.adjwgt
  and vwgt = g.Wgraph.vwgt in
  let m = Array.make_matrix k k 0 in
  let loads = Array.make k 0 in
  let total = ref 0 in
  for u = 0 to n - 1 do
    let p = part.(u) in
    let w = vwgt.(u) in
    loads.(p) <- loads.(p) + w;
    total := !total + w;
    let row = m.(p) in
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let q = part.(adjncy.(i)) in
      if q <> p then row.(q) <- row.(q) + adjwgt.(i)
    done
  done;
  let cut = ref 0 and max_bw = ref 0 and bw_ex = ref 0 in
  for p = 0 to k - 1 do
    for q = p + 1 to k - 1 do
      let w = m.(p).(q) in
      cut := !cut + w;
      if w > !max_bw then max_bw := w;
      if w > c.Types.bmax then bw_ex := !bw_ex + w - c.Types.bmax
    done
  done;
  let max_res = ref 0 and res_ex = ref 0 in
  for p = 0 to k - 1 do
    let r = loads.(p) in
    if r > !max_res then max_res := r;
    if r > c.Types.rmax then res_ex := !res_ex + r - c.Types.rmax
  done;
  let imbalance =
    if !total = 0 then 0.
    else float_of_int (k * !max_res) /. float_of_int !total
  in
  {
    cut = !cut;
    bandwidth = m;
    max_bandwidth = !max_bw;
    bw_excess = !bw_ex;
    loads;
    max_resources = !max_res;
    res_excess = !res_ex;
    imbalance;
  }

type goodness = { violation : int; cut_value : int }

(* Any nonzero excess must register as a violation even after integer
   division, hence the [1 +]. *)
let normalize excess bound =
  if excess = 0 then 0 else 1 + (excess * 1000 / max 1 bound)

let normalized_violation (c : Types.constraints) ~bw_excess ~res_excess =
  normalize bw_excess c.Types.bmax + normalize res_excess c.Types.rmax

let goodness_of_quality (c : Types.constraints) q =
  {
    violation =
      normalized_violation c ~bw_excess:q.bw_excess ~res_excess:q.res_excess;
    cut_value = q.cut;
  }

let goodness g c part = goodness_of_quality c (quality g c part)

let compare_goodness a b =
  match compare a.violation b.violation with
  | 0 -> compare a.cut_value b.cut_value
  | n -> n

let pp_goodness ppf gd =
  Format.fprintf ppf "violation=%d cut=%d" gd.violation gd.cut_value

type report = {
  total_cut : int;
  max_bandwidth : int;
  max_resources : int;
  bandwidth_ok : bool;
  resource_ok : bool;
  runtime_s : float;
}

let report_of_quality ?(runtime_s = 0.0) q =
  Ppnpart_obs.Counters.incr "metrics.report";
  {
    total_cut = q.cut;
    max_bandwidth = q.max_bandwidth;
    max_resources = q.max_resources;
    bandwidth_ok = q.bw_excess = 0;
    resource_ok = q.res_excess = 0;
    runtime_s;
  }

let report ?runtime_s g (c : Types.constraints) part =
  report_of_quality ?runtime_s (quality g c part)

let pp_report ppf r =
  let flag ok = if ok then "met" else "VIOLATED" in
  Format.fprintf ppf
    "cut=%d time=%.3fs max_res=%d (%s) max_bw=%d (%s)" r.total_cut
    r.runtime_s r.max_resources (flag r.resource_ok) r.max_bandwidth
    (flag r.bandwidth_ok)
