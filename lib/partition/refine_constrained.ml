open Ppnpart_graph

(* Greedy sweeps: strictly improving moves only, random node order.

   Boundary-driven: only nodes in the active set are evaluated. An
   inactive node u (ed u = 0 and its part p within Rmax) can never
   have an accepted move: its connectivity is zero except at
   p, so for any target t the cut delta is conn p >= 0, the resource
   delta is excess(load t + w) - excess(load t) >= 0 (the p side
   contributes 0 since load p <= rmax), and the only bandwidth pair that
   changes is (p, t), growing by conn p — every delta is non-negative
   under a monotone violation, so the strict-improvement acceptance (and
   the stricter singleton rule in best_target) rejects it. The full
   identity permutation is still shuffled, so the rng draw sequence and
   the visit order of active nodes are bit-identical to a full scan of
   every node (the cache-less oracle in test/oracle/refine_oracle.ml) —
   inactive nodes are skipped in O(1) at visit time, against the active
   set as it stands at that moment. *)
let greedy_sweeps max_passes rng (st : Part_state.t) =
  Ppnpart_obs.Span.with_ "refine.greedy" @@ fun () ->
  let n = Wgraph.n_nodes st.Part_state.g in
  let ws = st.Part_state.ws in
  let conn = ws.Workspace.rf_conn and order = ws.Workspace.rf_order in
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
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
  (* Hot loop: accumulate locally, emit one counter delta per call. *)
  let applied = ref 0 in
  while !moved && !passes < max_passes do
    moved := false;
    incr passes;
    shuffle ();
    for i = 0 to n - 1 do
      let u = order.(i) in
      if st.Part_state.apos.(u) >= 0 then begin
        Part_state.connectivity st conn u;
        let cur_violation = Part_state.violation st in
        let v, cut', t = Part_state.best_target st conn u in
        if
          t >= 0
          && (v < cur_violation
             || (v = cur_violation && cut' < st.Part_state.cut))
        then begin
          Part_state.apply_move st u t conn;
          incr applied;
          moved := true
        end
      end
    done
  done;
  Ppnpart_obs.Counters.add "refine.greedy.moves" !applied

(* Below this size the exact pass is cheap enough to rescue a stalled
   infeasible state (see [run_rounds]); it is also the size up to which
   fm_pass explores unboundedly instead of early-exiting. *)
let exact_fallback_limit = 512

(* The move journal both FM passes keep: every tentative move in order,
   each moved node locked, and the prefix after which goodness was best.
   Closing it rolls the suffix back, so a pass never leaves the state
   worse than it found it. A node is locked when its [rf_lock] stamp is
   the journal's [epoch]: opening a journal starts a new epoch, which
   unlocks every node without an O(n) fill. *)
type journal = {
  st : Part_state.t;
  epoch : int;
  start : Metrics.goodness;
  mutable best : Metrics.goodness;
  mutable best_prefix : int;
  mutable n_moves : int;
}

let journal_open (st : Part_state.t) =
  let ws = st.Part_state.ws in
  ws.Workspace.rf_epoch <- ws.Workspace.rf_epoch + 1;
  let epoch = ws.Workspace.rf_epoch in
  let start = Part_state.goodness st in
  { st; epoch; start; best = start; best_prefix = 0; n_moves = 0 }

let locked j u = j.st.Part_state.ws.Workspace.rf_lock.(u) = j.epoch

(* Move [u] to [t] ([conn] holds u's connectivity), lock and record it. *)
let journal_move j u t conn =
  let st = j.st in
  let ws = st.Part_state.ws in
  let from = st.Part_state.part.(u) in
  Part_state.apply_move st u t conn;
  ws.Workspace.rf_lock.(u) <- j.epoch;
  ws.Workspace.rf_moves_u.(j.n_moves) <- u;
  ws.Workspace.rf_moves_from.(j.n_moves) <- from;
  j.n_moves <- j.n_moves + 1;
  let now = Part_state.goodness st in
  if Metrics.compare_goodness now j.best < 0 then begin
    j.best <- now;
    j.best_prefix <- j.n_moves
  end

(* Roll back to the best prefix; true when the pass improved on its
   start. *)
let journal_close ~site j =
  let st = j.st in
  let ws = st.Part_state.ws in
  let conn = ws.Workspace.rf_conn in
  for i = j.n_moves - 1 downto j.best_prefix do
    let u = ws.Workspace.rf_moves_u.(i) in
    Part_state.connectivity st conn u;
    Part_state.apply_move st u ws.Workspace.rf_moves_from.(i) conn
  done;
  Ppnpart_obs.Counters.add "fm.moves.applied" j.best_prefix;
  Ppnpart_obs.Counters.add "fm.moves.rolled_back" (j.n_moves - j.best_prefix);
  Debug_hooks.validate ~site st;
  Metrics.compare_goodness j.best j.start < 0

(* One FM pass: tentative moves (worsening allowed), each node moved at
   most once, rollback to the best state seen.

   Move selection runs on a {!Bucket} gain queue instead of rescanning
   all n nodes per move. A node's priority encodes its best move's
   lexicographic (violation delta, cut delta) improvement as a single
   bucket gain: the violation component is clamped to [+-violation_cap]
   classes and scaled past the cut component, whose magnitude is bounded
   by the maximum weighted degree. Priorities of non-neighbours go stale
   as the bandwidth matrix evolves, so the pop is lazy: the popped
   node's move is re-evaluated against the current state and re-queued
   at its fresh priority when it got worse — an applied move therefore
   always uses exact deltas. After each applied move only the moved
   node's unlocked neighbours are re-gained, which drops move selection
   from O(n^2 k) per pass to O(m (d_avg + k^2)).

   The bucket is seeded from the active set, not over all n nodes: an
   inactive node (no external neighbour, part within Rmax) can only
   carry a strictly worsening move (see the greedy_sweeps proof; with
   every edge weight >= 1 its cut delta conn p is strictly positive), so
   it can never hold a non-negative slot, and the hill-climbing phase
   reaches it anyway the moment it matters — each applied move re-gains
   *all* the mover's unlocked neighbours, members or not, so nodes the
   churn activates join the bucket then. What the restriction drops is
   tentative worsening churn through untouched interior regions, which
   is exactly the work that made a pass O(n) even on a converged
   partition. Seeding changes no state, so the bucket is filled from
   the active list sorted ascending: the same nodes in the same
   insertion order as a scan of every u, in O(a log a) for an active
   set of a nodes. The full-scan oracle (test/oracle/refine_oracle.ml)
   seeds exactly that way, recomputing the predicate per node by
   neighbour sweep, so the two stay bit-identical, move for move.

   Nothing else in a pass is O(n) either: the gain scale is the state's
   cached maximum weighted degree, locks are epoch stamps, and clearing
   the reused bucket costs its occupied words plus the nodes left. *)

let violation_cap = 32

let fm_pass (st : Part_state.t) =
  Ppnpart_obs.Span.with_result
    ~result:(fun improved -> [ ("improved", Ppnpart_obs.Obs.Bool improved) ])
    "refine.fm_pass"
  @@ fun () ->
  let g = st.Part_state.g in
  let n = Wgraph.n_nodes g in
  let ws = st.Part_state.ws in
  let cut_cap = st.Part_state.max_wdeg in
  let scale = (2 * cut_cap) + 3 in
  let clamp lo hi v = if v < lo then lo else if v > hi then hi else v in
  let conn = ws.Workspace.rf_conn in
  (* Best move of [u] under the (violation, cut) order, encoded as a
     bucket gain. Leaves [conn] filled with u's connectivity. *)
  let best_move u =
    Part_state.connectivity st conn u;
    let v, cut', t = Part_state.best_target st conn u in
    if t < 0 then None
    else begin
      let dv = v - Part_state.violation st in
      let dcut = cut' - st.Part_state.cut in
      let vq = clamp (-violation_cap) violation_cap (-dv) in
      let cq = clamp (-cut_cap) cut_cap (-dcut) in
      Some ((vq * scale) + cq, t)
    end
  in
  (* The reused bucket may have a larger capacity than this graph needs,
     so every bound-derived quantity below uses the *logical* gain bound,
     never [Bucket.max_gain]. *)
  let logical_max_gain = (violation_cap + 1) * scale in
  let bucket = Workspace.bucket ws ~n ~max_gain:logical_max_gain in
  let j = journal_open st in
  let seed u =
    match best_move u with
    | Some (gain, _) -> Bucket.insert bucket u gain
    | None -> ()
  in
  (* Small graphs seed every node: there the exhaustive pass is cheap
     and pairs with the exact rescue, and restricting it only shifts
     exploration onto that costlier rescue. *)
  let seeded =
    if n <= exact_fallback_limit then begin
      for u = 0 to n - 1 do
        seed u
      done;
      n
    end
    else begin
      let a = st.Part_state.n_active in
      let order = ws.Workspace.rf_seed in
      Array.blit st.Part_state.active 0 order 0 a;
      Int_sort.sort_keys order ~lo:0 ~len:a;
      for i = 0 to a - 1 do
        seed order.(i)
      done;
      a
    end
  in
  Ppnpart_obs.Counters.add "fm.seeded" seeded;
  (* Stale re-queues strictly lower a node's priority, so they terminate;
     the budget is a safety net against pathological thrashing. *)
  let pops = ref 0 in
  let stale = ref 0 and regains = ref 0 in
  let pop_budget = (20 * (n + 1)) + (2 * logical_max_gain) in
  (* Early exit (the classic FM window): once this many tentative moves
     in a row fail to produce a new best goodness, the hill-climb has
     wandered off and the suffix is doomed to roll back anyway. Without
     it every pass churns through all n nodes — each worsening move
     re-activates its neighbours, so the wavefront crosses the whole
     graph even from a converged partition, which is exactly the O(n)
     floor boundary-driven refinement exists to remove. Graphs up to
     [exact_fallback_limit] are exempt: a full pass is cheap there, and
     an early exit only shifts the same exploration onto the O(n^2 k)
     exact rescue, which costs more per round than it saves. *)
  let stall_limit =
    if n <= exact_fallback_limit then n else min 512 (max 32 (n / 64))
  in
  let continue = ref true in
  while
    !continue && j.n_moves < n && !pops < pop_budget
    && j.n_moves - j.best_prefix < stall_limit
  do
    incr pops;
    match Bucket.pop_max bucket with
    | None -> continue := false
    | Some (u, stored) -> (
      match best_move u with
      | None -> () (* no longer movable: drop until a neighbour re-gains *)
      | Some (fresh, t) ->
        if fresh < stored then begin
          incr stale;
          Bucket.insert bucket u fresh
        end
        else begin
          journal_move j u t conn;
          Wgraph.iter_neighbors g u (fun v _ ->
              if not (locked j v) then begin
                incr regains;
                if Bucket.mem bucket v then Bucket.remove bucket v;
                match best_move v with
                | Some (gain, _) -> Bucket.insert bucket v gain
                | None -> ()
              end)
        end)
  done;
  Ppnpart_obs.Counters.add "fm.pops" !pops;
  Ppnpart_obs.Counters.add "fm.stale_requeues" !stale;
  Ppnpart_obs.Counters.add "fm.regains" !regains;
  journal_close ~site:"fm_pass.rollback" j

(* One FM pass with exact global move selection: rescan every unlocked
   node before each move. O(n^2 k) — used only as an escape hatch (see
   [refine]) on graphs small enough that a full pass is sub-millisecond.
   With few parts, one move shifts the violation gain of *every* node
   (the pairwise bandwidth totals are global state), so the bucket pass's
   neighbour-only re-gains can stall in a basin the exact selection
   escapes. *)
let exact_fm_pass (st : Part_state.t) =
  Ppnpart_obs.Span.with_result
    ~result:(fun improved -> [ ("improved", Ppnpart_obs.Obs.Bool improved) ])
    "refine.exact_pass"
  @@ fun () ->
  let n = Wgraph.n_nodes st.Part_state.g in
  let conn = st.Part_state.ws.Workspace.rf_conn in
  let j = journal_open st in
  let continue = ref true in
  let skip u = locked j u in
  while !continue && j.n_moves < n do
    match Part_state.best_global_move ~skip st conn with
    | None -> continue := false
    | Some (u, t) ->
      Part_state.connectivity st conn u;
      journal_move j u t conn
  done;
  journal_close ~site:"exact_pass.rollback" j

let observe_active (st : Part_state.t) n =
  if Ppnpart_obs.Obs.recording () then begin
    Ppnpart_obs.Counters.add "refine.active.size" st.Part_state.n_active;
    Ppnpart_obs.Counters.sample "refine.active.fraction"
      (float_of_int st.Part_state.n_active /. float_of_int (max 1 n))
  end

let run_rounds max_passes rng (st : Part_state.t) =
  let n = Wgraph.n_nodes st.Part_state.g in
  observe_active st n;
  let rounds = ref 0 in
  let improving = ref true in
  while !improving && !rounds < max_passes do
    incr rounds;
    greedy_sweeps max_passes rng st;
    improving := fm_pass st;
    if (not !improving) && n <= exact_fallback_limit then
      improving := exact_fm_pass st;
    observe_active st n
  done;
  Debug_hooks.validate ~site:"refine.constrained" st

let refine_state ?(max_passes = 16) rng (st : Part_state.t) =
  Ppnpart_obs.Span.phase_result
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int (Wgraph.n_nodes st.Part_state.g));
        ("k", Ppnpart_obs.Obs.Int st.Part_state.c.Types.k) ])
    ~result:(fun () ->
      let gd = Part_state.goodness st in
      [ ("violation", Ppnpart_obs.Obs.Int gd.Metrics.violation);
        ("cut", Ppnpart_obs.Obs.Int gd.Metrics.cut_value) ])
    "refine.constrained"
  @@ fun () -> run_rounds max_passes rng st

let refine ?(max_passes = 16) ?workspace rng g (c : Types.constraints) part0 =
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  Ppnpart_obs.Span.phase_result
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int n); ("k", Ppnpart_obs.Obs.Int k) ])
    ~result:(fun (_, (gd : Metrics.goodness)) ->
      [ ("violation", Ppnpart_obs.Obs.Int gd.violation);
        ("cut", Ppnpart_obs.Obs.Int gd.cut_value) ])
    "refine.constrained"
  @@ fun () ->
  Types.check_partition ~n ~k part0;
  let st = Part_state.init ?workspace g c part0 in
  run_rounds max_passes rng st;
  (Part_state.snapshot st, Part_state.goodness st)
