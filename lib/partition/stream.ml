open Ppnpart_graph

(* Battaglino-style restreaming partitioner (DESIGN.md §6.5).

   One pass visits the nodes in a fixed order and assigns each in a
   single O(degree + k) step from O(n + k + k^2) live state: the label
   array, the per-part loads, and the flat k x k pairwise bandwidth
   matrix — there is no hierarchy, no per-node cache, and no gain
   structure, which is what lets this path swallow graphs whose
   multilevel V-cycle would not even finish its first coarsening level
   in comparable time.

   The per-node objective is HyperPRAW's reading of Battaglino 2015 —
   neighbour affinity minus an [a * load^g] penalty, with [a] escalated
   by [ta] per restream — with the paper's two constraints folded in
   where each naturally lands:

   - Rmax is the load penalty's normalizer: the penalty term is
     [a_i * ((load q + w_u) / Rmax)^g], so a part approaches cost
     [a_i] exactly as it approaches the resource bound (for
     unconstrained instances the balanced target [total/k] stands in);
   - Bmax is an affinity discount: edge weight toward a neighbour part
     [r] that would land on an already-saturated pair [(q, r)] — i.e.
     would increase [max(0, bw(q,r) - Bmax)] — is subtracted from the
     affinity instead of counted for it. The discount is the *exact*
     bandwidth-excess delta of the assignment restricted to the pairs
     it changes, weighted by the same escalating [a0 * ta^iter] factor
     as the load penalty: on planted-feasible instances an unweighted
     (edge-unit) discount left 24/24 streamed seeds infeasible where
     the [a0]-scaled one leaves 9/24 feasible outright.

   Candidate targets are the parts u has assigned neighbours in over
   edges of nonzero weight, plus the least-loaded part (the best
   zero-affinity target under the penalty; evaluating every
   empty-affinity part would make the step O(k^2) for nothing). Ties
   keep the lowest part id.

   Iteration 0 streams onto an unassigned graph (only already-assigned
   neighbours contribute affinity); iterations 1 .. max_iterations - 1
   restream the full assignment, removing each node from the state and
   re-placing it. A restream that moves no node is a fixed point and
   stops the schedule early.

   Everything is sequential and rng-free, so the result is a pure
   function of (graph, constraints, max_iterations): bit-identical
   across runs and trivially at every pool width. *)

type stats = {
  iterations : int;
  moved : int array;
  converged : bool;
  state_words : int;
  goodness : Metrics.goodness;
}

let default_iterations = 3

(* The penalty weight grows as [ta^iter], about 10^230 at this many
   passes; past ~1300 it overflows a float and every score is NaN. *)
let max_iterations_limit = 1000

(* Battaglino 2015 parameters, as fixed in HyperPRAW. *)
let gamma = 1.5
let ta = 1.7

let excess_over bound v = if v > bound then v - bound else 0

(* What a run carries from visit to visit: the least-loaded part,
   lowest id on ties, and how many visits took the exact rescore. *)
type run = { mutable light : int; mutable exact : int }

(* The least-loaded part, lowest id on ties. Branch-free: a data-dependent
   compare mispredicts on most parts, which cost more than the rest of
   the visit on R-MAT graphs. [d asr 62] is -1 exactly when [d < 0]. *)
let lightest load k =
  let l = ref 0 and best = ref load.(0) in
  for q = 1 to k - 1 do
    let d = load.(q) - !best in
    let lower = d asr 62 in
    best := !best + (d land lower);
    l := !l + ((q - !l) land lower)
  done;
  !l

(* The integer discount for placing a node of weight [w_u] in part [q]:
   the Bmax excess the pairs of [q] and its [nt] neighbour parts gain,
   plus the Rmax excess [q] gains. Rmax gets the same treatment as
   Bmax: without the exact resource-excess delta the bandwidth discount
   herds nodes into one part straight through the resource bound. *)
let discount ws (c : Types.constraints) ~nt ~w_u q =
  let k = c.Types.k and bmax = c.Types.bmax and rmax = c.Types.rmax in
  let bw = ws.Workspace.st_bw and conn = ws.Workspace.st_conn in
  let disc = ref 0 in
  if bmax <> max_int then
    for i = 0 to nt - 1 do
      let r = ws.Workspace.st_touched.(i) in
      if r <> q then begin
        let cur = bw.((q * k) + r) in
        disc :=
          !disc + excess_over bmax (cur + conn.(r)) - excess_over bmax cur
      end
    done;
  if rmax <> max_int then begin
    let l = ws.Workspace.st_load.(q) in
    disc := !disc + excess_over rmax (l + w_u) - excess_over rmax l
  end;
  !disc

(* [sweep g c ws run part ~rscale ~a ~holes] places nodes 0 .. n-1 in
   order and returns how many moved. With [holes] it visits only the
   unassigned nodes ([seed_partial]); otherwise it lifts every assigned
   node out of the state before re-placing it. Candidate q scores
   [x_q - a * r_q^1.5], with [x_q = aff_q - a * disc_q] and
   [r_q = (load_q + w_u) / rscale]; the labels are pinned to libm's
   [r ** 1.5], and the sweep scores with [r *. sqrt r] instead.

   Claim: the exact score [s_q] lies within [m_q = 1e-9 * (|x_q| +
   pen_q)] of the approximate [s'_q = x_q - pen_q], where [pen_q =
   a * (r *. sqrt r)], whenever [m_q < 1e290]. Proof: [x_q] is the same
   float on both paths. With unit roundoff u = 2^-53, correctly rounded
   [sqrt] and a [pow] within 1 ulp, both [r ** 1.5] and [r *. sqrt r]
   lie within 3u of the real r^1.5, so after the multiply by [a] the
   penalties differ by at most 8u * pen_q, and the last subtraction
   adds at most u * (|x_q| + pen_q) on each path: |s_q - s'_q| <=
   10u * (|x_q| + pen_q), about 10^-6 of m_q. The cap keeps every term
   far from overflow; none is subnormal (a nonzero penalty exceeds
   1e-50, and a subtraction with a subnormal result is exact).

   So if the approximate winner w has [s'_w - m_w > s'_q + m_q] for
   every other candidate q, then s_w > s_q for every q, and the exact
   scan picks w whatever its order and tie rule. Rounding is monotone,
   so the rounded bounds only understate that gap. Any other visit
   rescores every candidate with [**] in the exact scan's order (the
   lightest part, then the neighbour parts) and tie rule (higher score,
   then lower id). An infinite or NaN term fails the cap (comparisons
   with NaN are false), so such visits always take the exact path. *)
let sweep g (c : Types.constraints) ws run part ~rscale ~a ~holes =
  let xadj = g.Wgraph.xadj and adjncy = g.Wgraph.adjncy in
  let adjwgt = g.Wgraph.adjwgt and vwgt = g.Wgraph.vwgt in
  let k = c.Types.k and load = ws.Workspace.st_load in
  let bw = ws.Workspace.st_bw and conn = ws.Workspace.st_conn in
  let touched = ws.Workspace.st_touched in
  let moved = ref 0 in
  for u = 0 to Array.length part - 1 do
    let old = part.(u) in
    if old < 0 || not holes then begin
      let w_u = vwgt.(u) in
      let nt = ref 0 in
      for e = xadj.(u) to xadj.(u + 1) - 1 do
        let q = part.(adjncy.(e)) in
        if q >= 0 then begin
          (* [touched] has a spare slot, so the append is unconditional
             and only the count depends on [q] being new: [q] counts
             when its affinity first turns nonzero, once per visit. A
             weight-0 edge adds no affinity and lists no part, like an
             absent edge. *)
          let prev = conn.(q) and w = adjwgt.(e) in
          touched.(!nt) <- q;
          nt := !nt + (Bool.to_int (prev = 0) land Bool.to_int (w <> 0));
          conn.(q) <- prev + w
        end
      done;
      let nt = !nt in
      (* Restream: lift u out of the state so targets are scored against
         the partition without it (its own old placement must not make
         [old] look artificially attractive through the load term, nor
         hide the bandwidth its leaving would free). Only [old]'s load
         fell, so it is the only part that can take over as lightest. *)
      if old >= 0 then begin
        load.(old) <- load.(old) - w_u;
        for i = 0 to nt - 1 do
          let r = touched.(i) in
          if r <> old then begin
            let b = bw.((old * k) + r) - conn.(r) in
            bw.((old * k) + r) <- b;
            bw.((r * k) + old) <- b
          end
        done;
        let l = run.light in
        if load.(old) < load.(l) || (load.(old) = load.(l) && old < l) then
          run.light <- old
      end;
      (* Candidates: the lightest part, then the neighbour parts. *)
      let light = run.light in
      let t =
        if nt = 0 then light
        else begin
          let best = ref (-1) and best_s = ref 0.0 and best_m = ref 0.0 in
          let other_ub = ref neg_infinity and sure = ref true in
          for i = -1 to nt - 1 do
            let q = if i < 0 then light else touched.(i) in
            if i < 0 || q <> light then begin
              let x =
                float_of_int conn.(q)
                -. (a *. float_of_int (discount ws c ~nt ~w_u q))
              in
              let r = float_of_int (load.(q) + w_u) /. rscale in
              let pen = a *. (r *. sqrt r) in
              let s = x -. pen and m = 1e-9 *. (Float.abs x +. pen) in
              if not (m < 1e290) then sure := false;
              if !best < 0 || s > !best_s then begin
                if !best >= 0 && !best_s +. !best_m > !other_ub then
                  other_ub := !best_s +. !best_m;
                best := q;
                best_s := s;
                best_m := m
              end
              else if s +. m > !other_ub then other_ub := s +. m
            end
          done;
          if !sure && !best_s -. !best_m > !other_ub then !best
          else begin
            run.exact <- run.exact + 1;
            for i = -1 to nt - 1 do
              let q = if i < 0 then light else touched.(i) in
              if i < 0 || q <> light then begin
                let r = float_of_int (load.(q) + w_u) /. rscale in
                let s =
                  float_of_int conn.(q)
                  -. (a *. float_of_int (discount ws c ~nt ~w_u q))
                  -. (a *. (r ** gamma))
                in
                if i < 0 || s > !best_s || (s = !best_s && q < !best) then begin
                  best := q;
                  best_s := s
                end
              end
            done;
            !best
          end
        end
      in
      part.(u) <- t;
      load.(t) <- load.(t) + w_u;
      for i = 0 to nt - 1 do
        let r = touched.(i) in
        if r <> t then begin
          let b = bw.((t * k) + r) + conn.(r) in
          bw.((t * k) + r) <- b;
          bw.((r * k) + t) <- b
        end;
        conn.(r) <- 0
      done;
      if t = light && w_u <> 0 then run.light <- lightest load k;
      if old >= 0 && t <> old then incr moved
    end
  done;
  !moved

(* Clears [ws]'s stream state for [c] and returns the objective's two
   scales: the load normalizer — the resource bound itself, or the
   balanced target when the instance leaves Rmax unconstrained — and
   the base penalty weight [a0]. Battaglino's [a = sqrt 2 * m / n^g]
   calibrates a penalty over raw vertex-count loads against raw
   neighbour-count affinities. Our loads are normalized to [0, ~1] and
   our affinities are edge weights, so the same balance point is
   [sqrt 2] times the mean weighted degree: a part at its resource
   bound then costs about one and a half average nodes' worth of
   affinity. *)
let setup ws g (c : Types.constraints) =
  let n = Wgraph.n_nodes g and k = c.Types.k and rmax = c.Types.rmax in
  Workspace.ensure_stream ws ~k;
  Array.fill ws.Workspace.st_load 0 k 0;
  Array.fill ws.Workspace.st_bw 0 (k * k) 0;
  Array.fill ws.Workspace.st_conn 0 k 0;
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
  (rscale, if a0 <= 0.0 then sqrt 2.0 else a0)

(* The goodness of the labels behind [ws]'s stream state, from its loads
   and pairwise bandwidth matrix alone: every crossing edge sits in
   exactly one pair, so the cut is the sum over pairs. O(k²). *)
let state_goodness ws (c : Types.constraints) =
  let k = c.Types.k in
  let bw = ws.Workspace.st_bw and load = ws.Workspace.st_load in
  let cut = ref 0 and bw_excess = ref 0 and res_excess = ref 0 in
  for p = 0 to k - 1 do
    for q = p + 1 to k - 1 do
      let b = bw.((p * k) + q) in
      cut := !cut + b;
      bw_excess := !bw_excess + excess_over c.Types.bmax b
    done;
    res_excess := !res_excess + excess_over c.Types.rmax load.(p)
  done;
  { Metrics.violation =
      Metrics.normalized_violation c ~bw_excess:!bw_excess
        ~res_excess:!res_excess;
    cut_value = !cut }

let partition ?workspace ?(max_iterations = default_iterations) g
    (c : Types.constraints) =
  if max_iterations < 1 then
    invalid_arg "Stream.partition: max_iterations < 1";
  if max_iterations > max_iterations_limit then
    invalid_arg "Stream.partition: max_iterations > max_iterations_limit";
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  Ppnpart_obs.Span.phase_result
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int n);
        ("edges", Ppnpart_obs.Obs.Int (Wgraph.n_edges g));
        ("k", Ppnpart_obs.Obs.Int k);
        ("max_iterations", Ppnpart_obs.Obs.Int max_iterations) ])
    ~result:(fun (_, (st : stats)) ->
      [ ("iterations", Ppnpart_obs.Obs.Int st.iterations);
        ("converged", Ppnpart_obs.Obs.Bool st.converged) ])
    "stream.partition"
  @@ fun () ->
  let part = Workspace.part_bank ws ~n in
  Array.fill part 0 n (-1);
  let rscale, a0 = setup ws g c in
  let run = { light = 0; exact = 0 } in
  let moved_per_iter = Array.make max_iterations 0 in
  let iterations = ref 0 in
  let converged = ref false in
  while !iterations < max_iterations && not !converged do
    let iter = !iterations in
    let a = a0 *. (ta ** float_of_int iter) in
    let moved =
      Ppnpart_obs.Span.with_result
        ~args:(fun () -> [ ("iteration", Ppnpart_obs.Obs.Int iter) ])
        ~result:(fun moved -> [ ("moved", Ppnpart_obs.Obs.Int moved) ])
        "stream.iteration"
      @@ fun () -> sweep g c ws run part ~rscale ~a ~holes:false
    in
    moved_per_iter.(iter) <- moved;
    incr iterations;
    (* Iteration 0 assigns rather than moves; a later pass that moved
       nothing leaves the state untouched, so every further pass would
       be a no-op too. *)
    if iter > 0 && moved = 0 then converged := true
  done;
  let state_words = n + (k * k) + (3 * k) + 1 in
  if Ppnpart_obs.Obs.recording () then begin
    Ppnpart_obs.Counters.add "stream.iterations" !iterations;
    Array.iteri
      (fun i m -> if i < !iterations then Ppnpart_obs.Counters.add "stream.moves" m)
      moved_per_iter;
    if !converged then
      Ppnpart_obs.Counters.add "stream.converged_at" (!iterations - 1);
    Ppnpart_obs.Counters.add "stream.exact_rescores" run.exact;
    Ppnpart_obs.Counters.sample "stream.state.words"
      (float_of_int state_words);
    Ppnpart_obs.Counters.sample "stream.workspace.words"
      (float_of_int (Workspace.words ws))
  end;
  ( Array.copy part,
    {
      iterations = !iterations;
      moved = Array.sub moved_per_iter 0 !iterations;
      converged = !converged;
      state_words;
      goodness = state_goodness ws c;
    } )

(* Partial seeding for incremental repartitioning: the label array
   arrives mostly assigned (the projection of a previous result), and
   only the [-1] holes — nodes the edit added or evicted — are placed,
   by [partition]'s iteration-0 sweep against a state initialized from
   the assigned labels. *)
let seed_partial ?workspace g (c : Types.constraints) part =
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  if Array.length part <> n then
    invalid_arg "Stream.seed_partial: label array has wrong length";
  let holes = ref 0 in
  Array.iter
    (fun p ->
      if p < -1 || p >= k then
        invalid_arg "Stream.seed_partial: label out of range";
      if p < 0 then incr holes)
    part;
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  Ppnpart_obs.Span.with_result
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int n); ("k", Ppnpart_obs.Obs.Int k) ])
    ~result:(fun seeded -> [ ("seeded", Ppnpart_obs.Obs.Int seeded) ])
    "stream.seed_partial"
  @@ fun () ->
  let rscale, a0 = setup ws g c in
  let load = ws.Workspace.st_load and bw = ws.Workspace.st_bw in
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
  let run = { light = lightest load k; exact = 0 } in
  ignore (sweep g c ws run part ~rscale ~a:a0 ~holes:true);
  if Ppnpart_obs.Obs.recording () then
    Ppnpart_obs.Counters.add "stream.exact_rescores" run.exact;
  !holes
