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

   Candidate targets are the parts u has assigned neighbours in, plus
   the least-loaded part (the best zero-affinity target under the
   penalty; evaluating every empty-affinity part would make the step
   O(k^2) for nothing). Ties keep the lowest part id.

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
}

let default_iterations = 3

(* Battaglino 2015 parameters, as fixed in HyperPRAW. *)
let gamma = 1.5
let ta = 1.7

let excess_over bound v = if v > bound then v - bound else 0

let partition ?workspace ?(max_iterations = default_iterations) g
    (c : Types.constraints) =
  if max_iterations < 1 then
    invalid_arg "Stream.partition: max_iterations < 1";
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  let bmax = c.Types.bmax and rmax = c.Types.rmax in
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
  Workspace.ensure_stream ws ~k;
  let part = Workspace.part_bank ws ~n in
  Array.fill part 0 n (-1);
  let load = ws.Workspace.st_load in
  let bw = ws.Workspace.st_bw in
  let conn = ws.Workspace.st_conn in
  let touched = ws.Workspace.st_touched in
  Array.fill load 0 k 0;
  Array.fill bw 0 (k * k) 0;
  Array.fill conn 0 k 0;
  let total_vw = Wgraph.total_node_weight g in
  let total_ew = Wgraph.total_edge_weight g in
  (* Load normalizer: the resource bound itself, or the balanced target
     when the instance leaves Rmax unconstrained. *)
  let rscale =
    float_of_int
      (max 1
         (if rmax = max_int then (total_vw + k - 1) / max 1 k else rmax))
  in
  (* Battaglino's [a = sqrt 2 * m / n^g] calibrates a penalty over raw
     vertex-count loads against raw neighbour-count affinities. Our
     loads are normalized to [0, ~1] by [rscale] and our affinities are
     edge weights, so the same balance point is [sqrt 2] times the mean
     weighted degree: a part at its resource bound then costs about one
     and a half average nodes' worth of affinity. *)
  let a0 =
    sqrt 2.0 *. 2.0 *. float_of_int total_ew /. float_of_int (max 1 n)
  in
  let a0 = if a0 <= 0.0 then sqrt 2.0 else a0 in
  let moved_per_iter = Array.make max_iterations 0 in
  (* [visit iter u]: score and (re)assign one node. [conn]/[touched]
     carry u's affinity toward each part with at least one assigned
     neighbour; both are restored to all-zero before returning, so the
     step stays O(degree + k) with no per-iteration clearing. *)
  let visit ~a_i ~bw_w u =
    let w_u = Wgraph.node_weight g u in
    let old = part.(u) in
    let nt = ref 0 in
    Wgraph.iter_neighbors g u (fun v w ->
        let q = part.(v) in
        if q >= 0 then begin
          if conn.(q) = 0 then begin
            touched.(!nt) <- q;
            incr nt
          end;
          conn.(q) <- conn.(q) + w
        end);
    (* Restream: lift u out of the state so targets are scored against
       the partition without it (its own old placement must not make
       [old] look artificially attractive through the load term, nor
       hide the bandwidth its leaving would free). *)
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
      (* Rmax gets the same treatment as Bmax: beyond the soft balance
         term, the exact resource-excess delta of placing u in q is
         discounted at the same escalating weight — without it the
         bandwidth discount herds nodes into one part straight through
         the resource bound. *)
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
    (* Candidates: neighbour parts plus the least-loaded part. *)
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
    let moved =
      Ppnpart_obs.Span.with_result
        ~args:(fun () -> [ ("iteration", Ppnpart_obs.Obs.Int iter) ])
        ~result:(fun moved -> [ ("moved", Ppnpart_obs.Obs.Int moved) ])
        "stream.iteration"
      @@ fun () ->
      let moved = ref 0 in
      for u = 0 to n - 1 do
        if visit ~a_i ~bw_w u then incr moved
      done;
      !moved
    in
    moved_per_iter.(iter) <- moved;
    incr iterations;
    (* Iteration 0 assigns rather than moves; a later pass that moved
       nothing leaves the state untouched, so every further pass would
       be a no-op too. *)
    if iter > 0 && moved = 0 then converged := true;
    incr it
  done;
  let state_words = n + (k * k) + (3 * k) in
  if Ppnpart_obs.Obs.recording () then begin
    Ppnpart_obs.Counters.add "stream.iterations" !iterations;
    Array.iteri
      (fun i m -> if i < !iterations then Ppnpart_obs.Counters.add "stream.moves" m)
      moved_per_iter;
    if !converged then
      Ppnpart_obs.Counters.add "stream.converged_at" (!iterations - 1);
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
    } )

(* Partial seeding for incremental repartitioning: the label array
   arrives mostly assigned (the projection of a previous result), and
   only the [-1] holes — nodes the edit added or evicted — are placed,
   by the same iteration-0 objective as [partition] against a state
   initialized from the assigned labels. The scoring is duplicated
   rather than shared with [visit]: [partition]'s output is pinned
   bit-for-bit by the bench gates, and threading a "skip assigned /
   no lift-out" flag through its hot loop for the sake of this cold
   path would put that stability at risk for nothing. *)
let seed_partial ?workspace g (c : Types.constraints) part =
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
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  Ppnpart_obs.Span.with_result
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int n); ("k", Ppnpart_obs.Obs.Int k) ])
    ~result:(fun seeded -> [ ("seeded", Ppnpart_obs.Obs.Int seeded) ])
    "stream.seed_partial"
  @@ fun () ->
  Workspace.ensure_stream ws ~k;
  let load = ws.Workspace.st_load in
  let bw = ws.Workspace.st_bw in
  let conn = ws.Workspace.st_conn in
  let touched = ws.Workspace.st_touched in
  Array.fill load 0 k 0;
  Array.fill bw 0 (k * k) 0;
  Array.fill conn 0 k 0;
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
          if q >= 0 then begin
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
