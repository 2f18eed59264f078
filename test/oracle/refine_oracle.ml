(* Reference constrained refinement: [Refine_constrained.refine] as it
   stood before the boundary caches, kept verbatim as the differential
   oracle of the boundary-driven refiner. The state carries only the
   part-level aggregates (pairwise bandwidth matrix, loads, member
   counts, running excess totals and cut), freshly allocated through
   [Metrics]; a node's connectivity is recomputed by a neighbour sweep
   on every query, every greedy sweep visits all n nodes, and every FM
   pass allocates its own bucket and scratch and recomputes each node's
   activity by neighbour sweep. The rounds, the rng draws and the move
   order are those of the shipped refiner, so the two must agree on
   labels, goodness and rng consumption — and the full-scan cost model
   is what the refinement benchmark's speedup is measured against.

   Usage: [Refine_oracle.refine rng g c part] against
   [Refine_constrained.refine] (or [refine_state] on the same labels)
   from a copy of the same rng state. *)

open Ppnpart_graph
open Ppnpart_partition

type state = {
  g : Wgraph.t;
  c : Types.constraints;
  part : int array;
  bw : int array array;
  load : int array;
  members : int array;
  mutable bw_excess : int;
  mutable res_excess : int;
  mutable cut : int;
}

let excess_over bound v = if v > bound then v - bound else 0

let init g (c : Types.constraints) part =
  let k = c.Types.k in
  let bw = Metrics.bandwidth_matrix g ~k part in
  let load = Metrics.part_resources g ~k part in
  let members = Array.make k 0 in
  Array.iter (fun p -> members.(p) <- members.(p) + 1) part;
  {
    g;
    c;
    part = Array.copy part;
    bw;
    load;
    members;
    bw_excess = Metrics.bandwidth_excess g c part;
    res_excess = Metrics.resource_excess g c part;
    cut = Metrics.cut g part;
  }

let connectivity st conn u =
  Array.fill conn 0 st.c.Types.k 0;
  Wgraph.iter_neighbors st.g u (fun v w ->
      conn.(st.part.(v)) <- conn.(st.part.(v)) + w)

let move_deltas st u t conn =
  let c = st.c in
  let k = c.Types.k in
  let p = st.part.(u) in
  let bmax = c.Types.bmax and rmax = c.Types.rmax in
  let d_bw = ref 0 in
  for q = 0 to k - 1 do
    if q <> p && q <> t && conn.(q) <> 0 then
      (* pair (p, q) loses conn q; pair (t, q) gains conn q *)
      d_bw :=
        !d_bw
        + excess_over bmax (st.bw.(p).(q) - conn.(q))
        - excess_over bmax st.bw.(p).(q)
        + excess_over bmax (st.bw.(t).(q) + conn.(q))
        - excess_over bmax st.bw.(t).(q)
  done;
  (* pair (p, t): edges to t become internal, edges to p become crossing *)
  let pt = st.bw.(p).(t) in
  let pt' = pt - conn.(t) + conn.(p) in
  d_bw := !d_bw + excess_over bmax pt' - excess_over bmax pt;
  let w_u = Wgraph.node_weight st.g u in
  let d_res =
    excess_over rmax (st.load.(p) - w_u)
    - excess_over rmax st.load.(p)
    + excess_over rmax (st.load.(t) + w_u)
    - excess_over rmax st.load.(t)
  in
  let d_cut = conn.(p) - conn.(t) in
  (!d_bw, d_res, d_cut)

let apply_move st u t conn =
  let p = st.part.(u) in
  let d_bw, d_res, d_cut = move_deltas st u t conn in
  let k = st.c.Types.k in
  for q = 0 to k - 1 do
    if q <> p && q <> t && conn.(q) <> 0 then begin
      st.bw.(p).(q) <- st.bw.(p).(q) - conn.(q);
      st.bw.(q).(p) <- st.bw.(p).(q);
      st.bw.(t).(q) <- st.bw.(t).(q) + conn.(q);
      st.bw.(q).(t) <- st.bw.(t).(q)
    end
  done;
  let pt' = st.bw.(p).(t) - conn.(t) + conn.(p) in
  st.bw.(p).(t) <- pt';
  st.bw.(t).(p) <- pt';
  let w_u = Wgraph.node_weight st.g u in
  st.load.(p) <- st.load.(p) - w_u;
  st.load.(t) <- st.load.(t) + w_u;
  st.members.(p) <- st.members.(p) - 1;
  st.members.(t) <- st.members.(t) + 1;
  st.part.(u) <- t;
  st.bw_excess <- st.bw_excess + d_bw;
  st.res_excess <- st.res_excess + d_res;
  st.cut <- st.cut + d_cut

let violation st =
  Metrics.normalized_violation st.c ~bw_excess:st.bw_excess
    ~res_excess:st.res_excess

let goodness st = { Metrics.violation = violation st; cut_value = st.cut }

(* Best target part of [u] as [(violation', cut', target)], [target = -1]
   when none is legal. A move that would empty [u]'s part is considered
   only when it strictly reduces the violation. *)
let best_target st conn u =
  let k = st.c.Types.k in
  let p = st.part.(u) in
  let best_t = ref (-1) in
  let best_v = ref max_int and best_cut = ref max_int in
  let singleton = st.members.(p) = 1 in
  let cur_v = if singleton then violation st else max_int in
  for t = 0 to k - 1 do
    if t <> p then begin
      let d_bw, d_res, d_cut = move_deltas st u t conn in
      let v =
        Metrics.normalized_violation st.c
          ~bw_excess:(st.bw_excess + d_bw)
          ~res_excess:(st.res_excess + d_res)
      in
      let cut' = st.cut + d_cut in
      if
        ((not singleton) || v < cur_v)
        && (v < !best_v || (v = !best_v && cut' < !best_cut))
      then begin
        best_v := v;
        best_cut := cut';
        best_t := t
      end
    end
  done;
  (!best_v, !best_cut, !best_t)

(* Greedy sweeps: strictly improving moves only, every node visited in a
   freshly shuffled order each sweep. *)
let greedy_sweeps max_passes rng st =
  let n = Wgraph.n_nodes st.g in
  let k = st.c.Types.k in
  let conn = Array.make k 0 and order = Array.init n (fun i -> i) in
  let shuffle () =
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done
  in
  let moved = ref true in
  let passes = ref 0 in
  while !moved && !passes < max_passes do
    moved := false;
    incr passes;
    shuffle ();
    for i = 0 to n - 1 do
      let u = order.(i) in
      connectivity st conn u;
      let cur_violation = violation st in
      let v, cut', t = best_target st conn u in
      if t >= 0 && (v < cur_violation || (v = cur_violation && cut' < st.cut))
      then begin
        apply_move st u t conn;
        moved := true
      end
    done
  done

let exact_fallback_limit = 512
let violation_cap = 32

(* One tentative FM pass on a bucket gain queue with lazy re-evaluation
   of stale priorities, rolled back to the best prefix. On graphs above
   [exact_fallback_limit] the bucket is seeded only with the nodes that
   have an external neighbour or sit in a part over Rmax, each
   recomputed here by neighbour sweep. *)
let fm_pass st =
  let g = st.g in
  let n = Wgraph.n_nodes g in
  let k = st.c.Types.k in
  let cut_cap =
    let m = ref 1 in
    for u = 0 to n - 1 do
      let d = Wgraph.weighted_degree g u in
      if d > !m then m := d
    done;
    !m
  in
  let scale = (2 * cut_cap) + 3 in
  let clamp lo hi v = if v < lo then lo else if v > hi then hi else v in
  let conn = Array.make k 0 in
  let best_move u =
    connectivity st conn u;
    let v, cut', t = best_target st conn u in
    if t < 0 then None
    else begin
      let dv = v - violation st in
      let dcut = cut' - st.cut in
      let vq = clamp (-violation_cap) violation_cap (-dv) in
      let cq = clamp (-cut_cap) cut_cap (-dcut) in
      Some ((vq * scale) + cq, t)
    end
  in
  let logical_max_gain = (violation_cap + 1) * scale in
  let bucket = Bucket.create ~n ~max_gain:logical_max_gain in
  let locked = Array.make n false in
  let moves_u = Array.make (max n 1) (-1)
  and moves_from = Array.make (max n 1) (-1) in
  let n_moves = ref 0 in
  let start = goodness st in
  let best = ref start and best_prefix = ref 0 in
  let seed u =
    match best_move u with
    | Some (gain, _) -> Bucket.insert bucket u gain
    | None -> ()
  in
  if n <= exact_fallback_limit then
    for u = 0 to n - 1 do
      seed u
    done
  else begin
    let rmax = st.c.Types.rmax in
    for u = 0 to n - 1 do
      let p = st.part.(u) in
      let active =
        st.load.(p) > rmax
        ||
        let ed = ref 0 in
        Wgraph.iter_neighbors g u (fun v w ->
            if st.part.(v) <> p then ed := !ed + w);
        !ed > 0
      in
      if active then seed u
    done
  end;
  let pops = ref 0 in
  let pop_budget = (20 * (n + 1)) + (2 * logical_max_gain) in
  let stall_limit =
    if n <= exact_fallback_limit then n else min 512 (max 32 (n / 64))
  in
  let continue = ref true in
  while
    !continue && !n_moves < n && !pops < pop_budget
    && !n_moves - !best_prefix < stall_limit
  do
    incr pops;
    match Bucket.pop_max bucket with
    | None -> continue := false
    | Some (u, stored) -> (
      match best_move u with
      | None -> ()
      | Some (fresh, t) ->
        if fresh < stored then Bucket.insert bucket u fresh
        else begin
          let from = st.part.(u) in
          apply_move st u t conn;
          locked.(u) <- true;
          moves_u.(!n_moves) <- u;
          moves_from.(!n_moves) <- from;
          incr n_moves;
          let now = goodness st in
          if Metrics.compare_goodness now !best < 0 then begin
            best := now;
            best_prefix := !n_moves
          end;
          Wgraph.iter_neighbors g u (fun v _ ->
              if not locked.(v) then begin
                if Bucket.mem bucket v then Bucket.remove bucket v;
                match best_move v with
                | Some (gain, _) -> Bucket.insert bucket v gain
                | None -> ()
              end)
        end)
  done;
  for i = !n_moves - 1 downto !best_prefix do
    let u = moves_u.(i) and from = moves_from.(i) in
    connectivity st conn u;
    apply_move st u from conn
  done;
  Metrics.compare_goodness !best start < 0

(* One FM pass with exact global move selection: rescan every unlocked
   node before each move. *)
let exact_fm_pass st =
  let n = Wgraph.n_nodes st.g in
  let k = st.c.Types.k in
  let conn = Array.make k 0 in
  let locked = Array.make n false in
  let moves_u = Array.make (max n 1) (-1)
  and moves_from = Array.make (max n 1) (-1) in
  let n_moves = ref 0 in
  let start = goodness st in
  let best = ref start and best_prefix = ref 0 in
  let continue = ref true in
  while !continue && !n_moves < n do
    let chosen = ref None in
    for u = 0 to n - 1 do
      if not locked.(u) then begin
        connectivity st conn u;
        let v, cut', t = best_target st conn u in
        if t >= 0 then
          match !chosen with
          | Some (_, _, v', cut'')
            when v' < v || (v' = v && cut'' <= cut') ->
            ()
          | _ -> chosen := Some (u, t, v, cut')
      end
    done;
    match !chosen with
    | None -> continue := false
    | Some (u, t, _, _) ->
      let from = st.part.(u) in
      connectivity st conn u;
      apply_move st u t conn;
      locked.(u) <- true;
      moves_u.(!n_moves) <- u;
      moves_from.(!n_moves) <- from;
      incr n_moves;
      let now = goodness st in
      if Metrics.compare_goodness now !best < 0 then begin
        best := now;
        best_prefix := !n_moves
      end
  done;
  for i = !n_moves - 1 downto !best_prefix do
    let u = moves_u.(i) and from = moves_from.(i) in
    connectivity st conn u;
    apply_move st u from conn
  done;
  Metrics.compare_goodness !best start < 0

(* At most 16 rounds of greedy sweeps plus one FM pass, and the exact
   rescue on graphs up to [exact_fallback_limit] nodes. *)
let max_passes = 16

let refine rng g (c : Types.constraints) part0 =
  let n = Wgraph.n_nodes g in
  Types.check_partition ~n ~k:c.Types.k part0;
  let st = init g c part0 in
  let rounds = ref 0 in
  let improving = ref true in
  while !improving && !rounds < max_passes do
    incr rounds;
    greedy_sweeps max_passes rng st;
    improving := fm_pass st;
    if (not !improving) && n <= exact_fallback_limit then
      improving := exact_fm_pass st
  done;
  (Array.copy st.part, goodness st)
