open Ppnpart_graph

(* The incremental caches (boundary-driven refinement, DESIGN.md §6.4):

   - [conn] packs one k-entry connectivity row per node ([u*k + q] is
     u's edge weight toward part q), patched in O(degree u) per move
     instead of recomputed by a neighbour sweep per query.
   - [ed] is each node's external degree (weight toward other parts);
     [ed u = 0] identifies interior nodes, whose best-target scan
     collapses to a closed form.
   - [active]/[apos]/[n_active] is a dense set of the nodes worth
     visiting: boundary nodes ([ed > 0]) plus every member of a part
     whose load exceeds Rmax (those may need evacuating even without an
     external neighbour).
   - [pl_next]/[pl_prev]/[pl_head] chain the members of each part
     (intrusive doubly linked lists, head marked [-p - 1] in [pl_prev])
     so an Rmax crossing can refresh exactly the affected part's members.
   - [max_wdeg] is the largest weighted degree (floor 1), the FM gain
     scale. Moves never change a node's weighted degree, so only the
     sweeps that rebuild rows ([build_node_caches], [rebase]) touch it.

   test/oracle/refine_oracle.ml keeps a cache-less full-scan state as
   the differential oracle for all of this. *)

type t = {
  g : Wgraph.t;
  c : Types.constraints;
  part : int array;
  bw : int array array;
  load : int array;
  members : int array;
  mutable bw_excess : int;
  mutable res_excess : int;
  mutable cut : int;
  ws : Workspace.t;
  conn : int array;
  ed : int array;
  active : int array;
  apos : int array;
  mutable n_active : int;
  pl_next : int array;
  pl_prev : int array;
  pl_head : int array;
  mutable max_wdeg : int;
}

let excess_over bound v = if v > bound then v - bound else 0

(* Active-set bookkeeping: dense list + position index, O(1) add/remove
   by swap-with-last. Order within [active] is never semantically
   meaningful — visit order in the refiners comes from a shuffled
   identity permutation, not from this list. *)

let active_add st u =
  if st.apos.(u) < 0 then begin
    st.apos.(u) <- st.n_active;
    st.active.(st.n_active) <- u;
    st.n_active <- st.n_active + 1
  end

let active_remove st u =
  let i = st.apos.(u) in
  if i >= 0 then begin
    let last = st.n_active - 1 in
    let y = st.active.(last) in
    st.active.(i) <- y;
    st.apos.(y) <- i;
    st.n_active <- last;
    st.apos.(u) <- -1
  end

let should_be_active st u =
  st.ed.(u) > 0 || st.load.(st.part.(u)) > st.c.Types.rmax

let active_refresh st u =
  if should_be_active st u then active_add st u else active_remove st u

(* Part member chains, the same intrusive-list idiom as {!Bucket}. *)

(* An Rmax crossing flips the activity of a whole part's interior:
   refresh exactly that part's members via its chain. *)
let refresh_members st p =
  let x = ref st.pl_head.(p) in
  while !x >= 0 do
    active_refresh st !x;
    x := st.pl_next.(!x)
  done

let chain_unlink st u =
  let nx = st.pl_next.(u) and pv = st.pl_prev.(u) in
  if pv >= 0 then st.pl_next.(pv) <- nx else st.pl_head.(-pv - 1) <- nx;
  if nx >= 0 then st.pl_prev.(nx) <- pv

let chain_push st p u =
  let h = st.pl_head.(p) in
  st.pl_next.(u) <- h;
  st.pl_prev.(u) <- (-p) - 1;
  if h >= 0 then st.pl_prev.(h) <- u;
  st.pl_head.(p) <- u

(* u's connectivity row and external degree, from its neighbours'
   current labels; returns u's weighted degree. *)
let fill_row st u =
  let k = st.c.Types.k in
  let row = u * k in
  Array.fill st.conn row k 0;
  let wdeg = ref 0 in
  Wgraph.iter_neighbors st.g u (fun v w ->
      let q = st.part.(v) in
      st.conn.(row + q) <- st.conn.(row + q) + w;
      wdeg := !wdeg + w);
  st.ed.(u) <- !wdeg - st.conn.(row + st.part.(u));
  !wdeg

(* A node's weighted degree from its caches: external degree plus
   connectivity toward its own part. *)
let cached_wdeg st u = st.ed.(u) + st.conn.((u * st.c.Types.k) + st.part.(u))

(* One O(m + nk) sweep filling connectivity rows, external degrees,
   the maximum weighted degree, member chains and the active set from
   the current labels and loads. *)
let build_node_caches st =
  let k = st.c.Types.k in
  let n = Wgraph.n_nodes st.g in
  Array.fill st.pl_head 0 k (-1);
  st.n_active <- 0;
  let best = ref 1 in
  for u = n - 1 downto 0 do
    let d = fill_row st u in
    if d > !best then best := d;
    chain_push st st.part.(u) u;
    st.apos.(u) <- -1
  done;
  st.max_wdeg <- !best;
  for u = 0 to n - 1 do
    if should_be_active st u then active_add st u
  done

(* Raw excess totals of a bandwidth matrix and load vector, O(k²). *)
let excess_totals (c : Types.constraints) bw load =
  let bw_excess = ref 0 and res_excess = ref 0 in
  for p = 0 to c.Types.k - 1 do
    for q = p + 1 to c.Types.k - 1 do
      bw_excess := !bw_excess + excess_over c.Types.bmax bw.(p).(q)
    done;
    res_excess := !res_excess + excess_over c.Types.rmax load.(p)
  done;
  (!bw_excess, !res_excess)

let init ?workspace g (c : Types.constraints) part0 =
  let ws =
    match workspace with Some w -> w | None -> Workspace.create ()
  in
  let k = c.Types.k in
  let n = Wgraph.n_nodes g in
  Workspace.ensure_state ws ~n ~k;
  let part = Workspace.part_bank ws ~n in
  Array.blit part0 0 part 0 n;
  let bw = ws.Workspace.ps_bw in
  for p = 0 to k - 1 do
    Array.fill bw.(p) 0 k 0
  done;
  let load = ws.Workspace.ps_load in
  let members = ws.Workspace.ps_members in
  Array.fill load 0 k 0;
  Array.fill members 0 k 0;
  for u = 0 to n - 1 do
    let p = part.(u) in
    load.(p) <- load.(p) + Wgraph.node_weight g u;
    members.(p) <- members.(p) + 1
  done;
  let cut = ref 0 in
  Wgraph.iter_edges g (fun u v w ->
      let p = part.(u) and q = part.(v) in
      if p <> q then begin
        bw.(p).(q) <- bw.(p).(q) + w;
        bw.(q).(p) <- bw.(q).(p) + w;
        cut := !cut + w
      end);
  let bw_excess, res_excess = excess_totals c bw load in
  let st =
    {
      g;
      c;
      part;
      bw;
      load;
      members;
      bw_excess;
      res_excess;
      cut = !cut;
      ws;
      conn = ws.Workspace.ps_conn;
      ed = ws.Workspace.ps_ed;
      active = ws.Workspace.ps_active;
      apos = ws.Workspace.ps_apos;
      n_active = 0;
      pl_next = ws.Workspace.pl_next;
      pl_prev = ws.Workspace.pl_prev;
      pl_head = ws.Workspace.pl_head;
      max_wdeg = 1;
    }
  in
  build_node_caches st;
  st

(* Contraction preserves cut, pairwise bandwidth and per-part loads
   exactly (the multilevel invariant, Coarsen's module doc), so the fine
   state inherits the coarse scalar totals and reuses the coarse k×k
   matrix and load array *in place* — only the member counts (a coarse
   node is a whole cluster) and the per-node caches are rebuilt. The
   coarse state is consumed: it shares [bw]/[load]/[members] with the
   fine state and must not be touched afterwards. *)
let init_projected ~map coarse fine_g =
  Ppnpart_obs.Span.with_
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int (Wgraph.n_nodes fine_g)) ])
    "refine.state_init"
  @@ fun () ->
  let ws = coarse.ws in
  let c = coarse.c in
  let k = c.Types.k in
  let n = Wgraph.n_nodes fine_g in
  if Array.length map <> n then
    invalid_arg "Part_state.init_projected: map length";
  Workspace.ensure_state ws ~n ~k;
  let part = Workspace.part_bank ws ~n in
  if part == coarse.part then
    invalid_arg "Part_state.init_projected: label bank aliasing";
  let members = coarse.members in
  Array.fill members 0 k 0;
  for u = 0 to n - 1 do
    let p = coarse.part.(map.(u)) in
    part.(u) <- p;
    members.(p) <- members.(p) + 1
  done;
  let st =
    {
      g = fine_g;
      c;
      part;
      bw = coarse.bw;
      load = coarse.load;
      members;
      bw_excess = coarse.bw_excess;
      res_excess = coarse.res_excess;
      cut = coarse.cut;
      ws;
      conn = ws.Workspace.ps_conn;
      ed = ws.Workspace.ps_ed;
      active = ws.Workspace.ps_active;
      apos = ws.Workspace.ps_apos;
      n_active = 0;
      pl_next = ws.Workspace.pl_next;
      pl_prev = ws.Workspace.pl_prev;
      pl_head = ws.Workspace.pl_head;
      max_wdeg = 1;
    }
  in
  build_node_caches st;
  st

(* An id-stable edit (no node added or removed) changes only the
   weights and rows of its touched nodes, and an edge between a touched
   and an untouched node is in the untouched node's row, so it is the
   same edge of the same weight on both sides. The deltas therefore
   come from edges with both ends touched (retracted from [st.g]'s rows,
   re-added from [g]'s, each visited from its lower endpoint), the
   touched nodes' weights, and their own cache rows; an untouched node
   keeps its row and external degree, and can change activity only
   through an Rmax crossing of its part, which the member chains
   refresh exactly as in [apply_move]. Only a touched node's weighted
   degree can change, so the maximum is patched from the touched rows,
   and rescanned in O(n) only when a touched node that held it got
   lighter. *)
let rebase st g ~touched =
  let n = Wgraph.n_nodes g in
  if Wgraph.n_nodes st.g <> n then
    invalid_arg "Part_state.rebase: node count changed";
  let c = st.c in
  let k = c.Types.k in
  let part = st.part in
  let nt = Array.length touched in
  let is_touched v =
    let lo = ref 0 and hi = ref nt in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if touched.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo < nt && touched.(!lo) = v
  in
  let cut = ref st.cut in
  let edge_delta gr sign u =
    let p = part.(u) in
    Wgraph.iter_neighbors gr u (fun v w ->
        let q = part.(v) in
        if u < v && p <> q && is_touched v then begin
          let b = st.bw.(p).(q) + (sign * w) in
          st.bw.(p).(q) <- b;
          st.bw.(q).(p) <- b;
          cut := !cut + (sign * w)
        end)
  in
  let was_over = Array.init k (fun p -> st.load.(p) > c.Types.rmax) in
  Array.iter
    (fun u ->
      edge_delta st.g (-1) u;
      edge_delta g 1 u;
      let p = part.(u) in
      st.load.(p) <-
        st.load.(p) + Wgraph.node_weight g u - Wgraph.node_weight st.g u)
    touched;
  let bw_excess, res_excess = excess_totals c st.bw st.load in
  let st = { st with g; bw_excess; res_excess; cut = !cut } in
  let old_max = st.max_wdeg in
  let touched_max = ref 1 and lost_max = ref false in
  Array.iter
    (fun u ->
      let before = cached_wdeg st u in
      let d = fill_row st u in
      if d > !touched_max then touched_max := d;
      if before = old_max && d < old_max then lost_max := true;
      active_refresh st u)
    touched;
  if not !lost_max then st.max_wdeg <- max old_max !touched_max
  else begin
    let best = ref 1 in
    for u = 0 to n - 1 do
      let d = cached_wdeg st u in
      if d > !best then best := d
    done;
    st.max_wdeg <- !best
  end;
  for p = 0 to k - 1 do
    if was_over.(p) <> (st.load.(p) > c.Types.rmax) then refresh_members st p
  done;
  st

let connectivity st conn u =
  let k = st.c.Types.k in
  Array.blit st.conn (u * k) conn 0 k

(* The parts [u] is connected to, from its connectivity vector, into
   the state's scratch; returns how many. *)
let nonzero_parts st conn =
  let nz = st.ws.Workspace.rf_nz in
  let nnz = ref 0 in
  for q = 0 to st.c.Types.k - 1 do
    if conn.(q) <> 0 then begin
      nz.(!nnz) <- q;
      incr nnz
    end
  done;
  !nnz

(* The bandwidth-excess delta of moving a node from part [p] to part
   [t], given its connectivity [conn] and the parts [nz.(0 .. nnz-1)]
   where [conn] is nonzero: O(nnz) instead of O(k). *)
let bw_delta st p t conn nz nnz =
  let bmax = st.c.Types.bmax in
  let d = ref 0 in
  for i = 0 to nnz - 1 do
    let q = nz.(i) in
    if q <> p && q <> t then
      (* pair (p, q) loses conn q; pair (t, q) gains conn q *)
      d :=
        !d
        + excess_over bmax (st.bw.(p).(q) - conn.(q))
        - excess_over bmax st.bw.(p).(q)
        + excess_over bmax (st.bw.(t).(q) + conn.(q))
        - excess_over bmax st.bw.(t).(q)
  done;
  (* pair (p, t): edges to t become internal, edges to p become crossing *)
  let pt = st.bw.(p).(t) in
  let pt' = pt - conn.(t) + conn.(p) in
  !d + excess_over bmax pt' - excess_over bmax pt

(* The resource-excess deltas of taking weight [w] out of part [p] and
   of putting it into part [t]. *)
let res_out st p w =
  let rmax = st.c.Types.rmax in
  excess_over rmax (st.load.(p) - w) - excess_over rmax st.load.(p)

let res_in st t w =
  let rmax = st.c.Types.rmax in
  excess_over rmax (st.load.(t) + w) - excess_over rmax st.load.(t)

let apply_move st u t conn =
  let p = st.part.(u) in
  let nz = st.ws.Workspace.rf_nz in
  let nnz = nonzero_parts st conn in
  let w_u = Wgraph.node_weight st.g u in
  let d_bw = bw_delta st p t conn nz nnz in
  let d_res = res_out st p w_u + res_in st t w_u in
  let d_cut = conn.(p) - conn.(t) in
  let k = st.c.Types.k in
  for i = 0 to nnz - 1 do
    let q = nz.(i) in
    if q <> p && q <> t then begin
      st.bw.(p).(q) <- st.bw.(p).(q) - conn.(q);
      st.bw.(q).(p) <- st.bw.(p).(q);
      st.bw.(t).(q) <- st.bw.(t).(q) + conn.(q);
      st.bw.(q).(t) <- st.bw.(t).(q)
    end
  done;
  let pt' = st.bw.(p).(t) - conn.(t) + conn.(p) in
  st.bw.(p).(t) <- pt';
  st.bw.(t).(p) <- pt';
  let rmax = st.c.Types.rmax in
  let p_was_over = st.load.(p) > rmax in
  let t_was_over = st.load.(t) > rmax in
  st.load.(p) <- st.load.(p) - w_u;
  st.load.(t) <- st.load.(t) + w_u;
  st.members.(p) <- st.members.(p) - 1;
  st.members.(t) <- st.members.(t) + 1;
  st.part.(u) <- t;
  st.bw_excess <- st.bw_excess + d_bw;
  st.res_excess <- st.res_excess + d_res;
  st.cut <- st.cut + d_cut;
  (* Patch the caches from the *true* edge weights — never from the
     caller's [conn], so a corrupted delta still leaves the caches in
     sync with the labels and the validator pins the divergence on the
     scalar totals. u's own row is unchanged by its own move. *)
  let row_u = u * k in
  st.ed.(u) <- st.ed.(u) + st.conn.(row_u + p) - st.conn.(row_u + t);
  Wgraph.iter_neighbors st.g u (fun v w ->
      let rv = v * k in
      st.conn.(rv + p) <- st.conn.(rv + p) - w;
      st.conn.(rv + t) <- st.conn.(rv + t) + w;
      let pv = st.part.(v) in
      if pv = p then st.ed.(v) <- st.ed.(v) + w
      else if pv = t then st.ed.(v) <- st.ed.(v) - w;
      active_refresh st v);
  chain_unlink st u;
  chain_push st t u;
  active_refresh st u;
  if p_was_over && st.load.(p) <= rmax then refresh_members st p;
  if (not t_was_over) && st.load.(t) > rmax then begin
    let x = ref st.pl_head.(t) in
    while !x >= 0 do
      active_add st !x;
      x := st.pl_next.(!x)
    done
  end

let violation st =
  Metrics.normalized_violation st.c ~bw_excess:st.bw_excess
    ~res_excess:st.res_excess

let goodness st = { Metrics.violation = violation st; cut_value = st.cut }

(* Every target is scored from the parts [u] touches, collected once:
   O(k · nnz) per node instead of O(k²). An interior node ([ed u = 0])
   touches only its own part, so its scan is O(k). *)
let best_target st conn u =
  let k = st.c.Types.k in
  let p = st.part.(u) in
  let best_t = ref (-1) in
  let best_v = ref max_int and best_cut = ref max_int in
  (* Emptying a part is normally forbidden (the network must occupy all K
     FPGAs), but on coarse graphs with n close to k that rule can freeze
     a singleton forever, pinning the search in an infeasible state that
     evacuating the node would repair. A singleton may therefore move
     exactly when doing so strictly reduces the violation. *)
  let singleton = st.members.(p) = 1 in
  let cur_v = if singleton then violation st else max_int in
  let nz = st.ws.Workspace.rf_nz in
  let nnz = nonzero_parts st conn in
  let w_u = Wgraph.node_weight st.g u in
  let res_excess = st.res_excess + res_out st p w_u in
  let cut = st.cut + conn.(p) in
  for t = 0 to k - 1 do
    if t <> p then begin
      let v =
        Metrics.normalized_violation st.c
          ~bw_excess:(st.bw_excess + bw_delta st p t conn nz nnz)
          ~res_excess:(res_excess + res_in st t w_u)
      in
      let cut' = cut - conn.(t) in
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

(* Exact global selection, shared by the exact FM pass and tabu search. *)
let best_global_move ?(skip = fun _ -> false) ?(admit = fun _ _ _ -> true) st
    conn =
  let best_u = ref (-1) and best_t = ref (-1) in
  let best_v = ref 0 and best_cut = ref 0 in
  for u = 0 to Wgraph.n_nodes st.g - 1 do
    if not (skip u) then begin
      connectivity st conn u;
      let v, cut', t = best_target st conn u in
      if
        t >= 0
        && (!best_u < 0 || v < !best_v || (v = !best_v && cut' < !best_cut))
        && admit u v cut'
      then begin
        best_u := u;
        best_t := t;
        best_v := v;
        best_cut := cut'
      end
    end
  done;
  if !best_u < 0 then None else Some (!best_u, !best_t)

let snapshot st = Array.copy st.part
