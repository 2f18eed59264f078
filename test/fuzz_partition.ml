(* Seeded differential fuzzing of the partitioning stack.

   Every test draws from a fixed-seed PRNG, so a run is deterministic and
   a failure reproduces by name. Three scales:

   - [PPNPART_QUICK=1] — shrunk instances, < 5 s (the @runtest-quick
     alias);
   - default — the acceptance scale: >= 20 seeds, >= 10k apply_move
     steps in total, n spanning 2..2000 and k spanning 2..16;
   - [PPNPART_FUZZ=full] — a longer sweep (the @fuzz alias, run in CI).

   The core comparison is always the same: a quantity maintained
   incrementally (Part_state deltas, bucket-queue gains, METIS text) is
   recomputed from scratch by an independent path (Metrics, exact FM,
   re-parse) and the two must agree exactly. *)

open Ppnpart_graph
open Ppnpart_partition
module Check = Ppnpart_check.Check
module Graph_edit_oracle = Ppnpart_test_oracle.Graph_edit_oracle
module Coarsen_oracle = Ppnpart_test_oracle.Coarsen_oracle
module Refine_oracle = Ppnpart_test_oracle.Refine_oracle
module Metis_oracle = Ppnpart_test_oracle.Metis_oracle

let mode =
  if Sys.getenv_opt "PPNPART_FUZZ" = Some "full" then `Full
  else if Sys.getenv_opt "PPNPART_QUICK" <> None then `Quick
  else `Default

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Graph sizes cycled over by the apply_move fuzz; the sweep must span
   tiny (n < k) through bench-sized states. *)
let sizes =
  match mode with
  | `Quick -> [| 2; 3; 5; 8; 13; 21; 34; 55; 89; 128 |]
  | `Default | `Full ->
    [| 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233; 377; 610; 987; 1500; 2000 |]

let n_seeds =
  match mode with `Quick -> 12 | `Default -> 24 | `Full -> 64

let steps_per_seed =
  match mode with `Quick -> 200 | `Default -> 500 | `Full -> 1000

let random_instance ~n ~k rng =
  let m = min (n * (n - 1) / 2) (3 * n) in
  let g =
    Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 9) ~ew_range:(1, 9) rng
      ~n ~m
  in
  let c =
    Types.constraints ~k
      ~bmax:((Wgraph.total_edge_weight g / (2 * k)) + 1)
      ~rmax:((Wgraph.total_node_weight g / k * 4 / 3) + 1)
  in
  (g, c, Initial.random_kway rng g ~k)

(* --- incremental state vs. from-scratch recomputation --- *)

let test_apply_move_consistency () =
  let total_steps = ref 0 in
  for seed = 1 to n_seeds do
    let rng = Random.State.make [| 0xF0; seed |] in
    let n = sizes.(seed mod Array.length sizes) in
    let k = 2 + (seed mod 15) in
    let g, c, part0 = random_instance ~n ~k rng in
    let st = Part_state.init g c part0 in
    let conn = Array.make k 0 in
    let site = Printf.sprintf "fuzz.seed%d" seed in
    (* Recomputing is O(m + k^2): affordable at every step on small
       states, sampled (plus once at the end) on large ones. *)
    let check_every = if n <= 128 then 1 else 97 in
    for step = 1 to steps_per_seed do
      let u = Random.State.int rng n in
      let t =
        let t = Random.State.int rng (k - 1) in
        if t >= st.Part_state.part.(u) then t + 1 else t
      in
      Part_state.connectivity st conn u;
      Part_state.apply_move st u t conn;
      incr total_steps;
      if step mod check_every = 0 || step = steps_per_seed then
        Check.part_state ~site st
    done
  done;
  check_bool
    (Printf.sprintf "acceptance scale: %d steps across %d seeds"
       !total_steps n_seeds)
    true
    (mode = `Quick || (!total_steps >= 10_000 && n_seeds >= 20))

(* Meta-test: the harness must actually catch a broken delta. Feeding
   [apply_move] a doctored connectivity vector corrupts the incremental
   bandwidth matrix and cut, and the very next [Check.part_state] has to
   raise. *)
let test_corrupted_delta_is_caught () =
  let g = Wgraph.of_edges 3 [ (0, 1, 2); (1, 2, 3); (0, 2, 4) ] in
  let c = Types.constraints ~k:3 ~bmax:1 ~rmax:2 in
  let st = Part_state.init g c [| 0; 1; 2 |] in
  let conn = Array.make 3 0 in
  Part_state.connectivity st conn 0;
  Check.part_state ~site:"fuzz.meta.before" st;
  conn.(1) <- conn.(1) + 7;
  Part_state.apply_move st 0 1 conn;
  match Check.part_state ~site:"fuzz.meta.after" st with
  | () -> Alcotest.fail "corrupted delta went undetected"
  | exception Check.Violation { field; _ } ->
    check_bool "divergence blamed on the bandwidth matrix" true
      (String.length field >= 2 && String.sub field 0 2 = "bw")

(* --- bucket-queue FM vs. exact global selection --- *)

let test_bucket_vs_exact_pass () =
  let seeds = match mode with `Quick -> 8 | `Default -> 16 | `Full -> 40 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xF1; seed |] in
    let n = 8 + (67 * seed mod 505) (* <= 512: exact stays cheap *) in
    let k = 2 + (seed mod 7) in
    let g, c, part0 = random_instance ~n ~k rng in
    let name = Printf.sprintf "n=%d k=%d seed=%d" n k seed in
    let run pass =
      let st = Part_state.init g c (Array.copy part0) in
      let before = Part_state.goodness st in
      let improved = pass st in
      Check.part_state ~site:"fuzz.pass" st;
      let after = Part_state.goodness st in
      let cmp = Metrics.compare_goodness after before in
      check_bool (name ^ ": pass never worsens") true (cmp <= 0);
      check_bool (name ^ ": flag matches goodness") improved (cmp < 0);
      after
    in
    ignore (run Refine_constrained.fm_pass);
    ignore (run Refine_constrained.exact_fm_pass);
    (* The bucket-driven refine must land on a fixed point of the exact
       pass: on <= 512 nodes it only stops once the exact rescue finds
       nothing, so a fresh exact pass on its output cannot improve. *)
    let refined, _ =
      Refine_constrained.refine ~max_passes:64
        (Random.State.make [| 0xF2; seed |])
        g c (Array.copy part0)
    in
    let st = Part_state.init g c refined in
    check_bool
      (name ^ ": refine output is an exact-pass fixed point")
      false
      (Refine_constrained.exact_fm_pass st)
  done

(* --- boundary-driven refine vs the full-scan oracle --- *)

(* The boundary path promises *bit*-identity with the cache-less
   full-scan refiner of [Refine_oracle], not merely equal quality: both
   consume the same rng draw sequence (the greedy sweep still shuffles
   the full n-permutation and only skips inactive nodes), so the
   partitions and goodness must match exactly. Each seed runs two
   inputs: a freshly initialised state, and the state the multilevel
   path refines — one level of [Coarsen.build], a random coarse
   labelling, and [Part_state.init_projected] (bandwidth matrix and
   loads inherited, caches rebuilt) fed to [refine_state] — against the
   oracle on the projected labels. One workspace serves the whole
   sweep — sizes go up and down across seeds, exercising both growth
   and steady-state reuse of the state banks and refinement scratch —
   and every fifth seed runs under installed invariant checks,
   revalidating the connectivity caches and active set at each phase
   boundary along the way. *)
let assert_same_refine name ~fast:(part_fast, (gd_fast : Metrics.goodness))
    ~oracle:(part_oracle, (gd_oracle : Metrics.goodness)) r_fast r_oracle =
  check_bool (name ^ ": partitions bit-identical") true
    (part_fast = part_oracle);
  check_int
    (name ^ ": violation identical")
    gd_oracle.Metrics.violation gd_fast.Metrics.violation;
  check_int (name ^ ": cut identical") gd_oracle.Metrics.cut_value
    gd_fast.Metrics.cut_value;
  (* Equal rng consumption: after both runs the streams must be in the
     same state, so their next draws coincide. *)
  check_int
    (name ^ ": same rng draws consumed")
    (Random.State.int r_oracle 1_000_000)
    (Random.State.int r_fast 1_000_000)

let test_boundary_vs_oracle_refine () =
  let seeds = match mode with `Quick -> 8 | `Default -> 18 | `Full -> 48 in
  let ws = Workspace.create () in
  let projected = ref 0 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xF8; seed |] in
    let n = 2 + (43 * seed mod 800) in
    let k = 2 + (seed mod 15) in
    let g, c, part0 = random_instance ~n ~k rng in
    let name = Printf.sprintf "n=%d k=%d seed=%d" n k seed in
    let guard f = if seed mod 5 = 0 then Check.with_checks f else f () in
    let r_fast = Random.State.make [| 0xF9; seed |] in
    let r_oracle = Random.State.copy r_fast in
    let fast =
      guard (fun () ->
          Refine_constrained.refine ~workspace:ws r_fast g c
            (Array.copy part0))
    in
    let oracle = Refine_oracle.refine r_oracle g c (Array.copy part0) in
    assert_same_refine name ~fast ~oracle r_fast r_oracle;
    (* Projected input: refine the fine state inherited from one level
       of coarsening. *)
    let h = Coarsen.build ~workspace:ws ~target:(n - 1) rng g in
    if Coarsen.levels h >= 2 then begin
      incr projected;
      let coarse_g = Coarsen.graph_at h 1 and map = h.Coarsen.maps.(0) in
      let coarse_part =
        Array.init (Wgraph.n_nodes coarse_g) (fun _ -> Random.State.int rng k)
      in
      let r_fast = Random.State.make [| 0xFA; seed |] in
      let r_oracle = Random.State.copy r_fast in
      let fast =
        guard (fun () ->
            let coarse_st =
              Part_state.init ~workspace:ws coarse_g c coarse_part
            in
            let st = Part_state.init_projected ~map coarse_st g in
            Refine_constrained.refine_state r_fast st;
            (Part_state.snapshot st, Part_state.goodness st))
      in
      let oracle =
        Refine_oracle.refine r_oracle g c
          (Coarsen.project_one map coarse_part)
      in
      assert_same_refine (name ^ " projected") ~fast ~oracle r_fast r_oracle
    end
  done;
  check_bool
    (Printf.sprintf "projected inputs exercised (%d of %d seeds)" !projected
       seeds)
    true
    (!projected * 2 >= seeds)

(* --- allocation-free coarsening kernels vs the boxed-tuple oracle --- *)

(* The CSR fast paths promise *bit*-identity, not just isomorphism:
   every array of the coarse graph must match the oracle's result exactly
   (same neighbour order, same weight sums, same cmap). Compare raw
   private-record fields — [Wgraph.equal] would also accept reordered
   slices. *)
let bit_identical (a : Wgraph.t) (b : Wgraph.t) =
  a.Wgraph.n = b.Wgraph.n
  && a.Wgraph.xadj = b.Wgraph.xadj
  && a.Wgraph.adjncy = b.Wgraph.adjncy
  && a.Wgraph.adjwgt = b.Wgraph.adjwgt
  && a.Wgraph.vwgt = b.Wgraph.vwgt

let test_contract_fast_vs_oracle () =
  let seeds = match mode with `Quick -> 6 | `Default -> 14 | `Full -> 36 in
  (* One workspace for the whole sweep: sizes go up and down across
     seeds, exercising both growth and reuse of the scratch arrays. *)
  let ws = Workspace.create () in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xF6; seed |] in
    let n = 2 + (37 * seed mod 600) in
    let k = 2 + (seed mod 15) in
    let g, _, _ = random_instance ~n ~k rng in
    let name = Printf.sprintf "n=%d seed=%d" n seed in
    (* Matching strategies: identical rng states in, identical partner
       arrays out. *)
    List.iter
      (fun s ->
        let r1 = Random.State.copy rng and r2 = Random.State.copy rng in
        let fast = Matching.compute ~workspace:ws s r1 g in
        let oracle = Coarsen_oracle.compute s r2 g in
        check_bool
          (Printf.sprintf "%s fast = oracle (%s)" (Matching.strategy_name s)
             name)
          true (fast = oracle))
      Matching.all_strategies;
    (* Contraction: same matching through both kernels must yield the
       same coarse graph bit for bit, and the same cmap. *)
    let partner = Matching.compute ~workspace:ws Matching.Heavy_edge rng g in
    let fast_g, fast_map = Coarsen.contract ~workspace:ws g partner in
    let oracle_g, oracle_map = Coarsen_oracle.contract g partner in
    check_bool (name ^ ": contract cmap identical") true
      (fast_map = oracle_map);
    check_bool (name ^ ": contract graph bit-identical") true
      (bit_identical fast_g oracle_g)
  done;
  (* Whole hierarchies: the workspace path and the oracle must agree
     level by level, maps included. *)
  let h_seeds = match mode with `Quick -> 3 | `Default -> 6 | `Full -> 12 in
  for seed = 1 to h_seeds do
    let mk () = Random.State.make [| 0xF7; seed |] in
    let n = 120 + (97 * seed mod 900) in
    let g, _, _ = random_instance ~n ~k:4 (mk ()) in
    let h_fast = Coarsen.build ~workspace:ws ~target:16 (mk ()) g in
    let oracle_graphs, oracle_maps =
      Coarsen_oracle.build ~target:16 (mk ()) g
    in
    let name = Printf.sprintf "hierarchy n=%d seed=%d" n seed in
    check_int (name ^ ": same level count") (Array.length oracle_graphs)
      (Coarsen.levels h_fast);
    for l = 0 to Coarsen.levels h_fast - 1 do
      check_bool
        (Printf.sprintf "%s: level %d bit-identical" name l)
        true
        (bit_identical (Coarsen.graph_at h_fast l) oracle_graphs.(l))
    done;
    check_bool (name ^ ": maps identical") true
      (h_fast.Coarsen.maps = oracle_maps)
  done

(* --- matching validity, all three strategies --- *)

let test_matching_validity () =
  let seeds = match mode with `Quick -> 6 | `Default -> 12 | `Full -> 30 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xF3; seed |] in
    let n = 2 + (41 * seed mod 400) in
    let g, _, _ = random_instance ~n ~k:2 rng in
    List.iter
      (fun s ->
        let m = Matching.compute s rng g in
        check_bool
          (Printf.sprintf "%s valid on n=%d seed=%d"
             (Matching.strategy_name s) n seed)
          true
          (Matching.is_valid g m))
      Matching.all_strategies
  done

(* --- coarsening hierarchy: projection preserves labels --- *)

let test_projection_preserves_labels () =
  let seeds = match mode with `Quick -> 4 | `Default -> 8 | `Full -> 20 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xF4; seed |] in
    let n = 60 + (53 * seed mod 700) in
    let g, _, _ = random_instance ~n ~k:4 rng in
    let h = Coarsen.build ~target:16 rng g in
    let levels = Coarsen.levels h in
    let k = 4 in
    let coarsest_n = Wgraph.n_nodes (Coarsen.coarsest h) in
    let part =
      ref (Array.init coarsest_n (fun i -> (i * 7 mod k + seed) mod k))
    in
    for level = levels - 2 downto 0 do
      let fine = Coarsen.project_one h.Coarsen.maps.(level) !part in
      Check.projection ~site:"fuzz.project" ~map:h.Coarsen.maps.(level)
        ~coarse:!part ~fine ();
      (* Contraction preserves cut, bandwidth and loads exactly
         (DESIGN §5): the projected partition must score identically. *)
      let c = Types.constraints ~k ~bmax:7 ~rmax:(10 * n) in
      let coarse_gd = Metrics.goodness (Coarsen.graph_at h (level + 1)) c !part in
      let fine_gd = Metrics.goodness (Coarsen.graph_at h level) c fine in
      check_int
        (Printf.sprintf "cut invariant at level %d seed %d" level seed)
        coarse_gd.Metrics.cut_value fine_gd.Metrics.cut_value;
      check_int
        (Printf.sprintf "violation invariant at level %d seed %d" level seed)
        coarse_gd.Metrics.violation fine_gd.Metrics.violation;
      part := fine
    done
  done

(* --- streaming vs multilevel: feasibility agreement --- *)

(* On planted-feasible instances (clusters with 25% constraint slack) the
   multilevel pipeline is the quality oracle: it must find a feasible
   partition on every one. The hybrid path — streaming seed plus
   boundary refinement, no coarsening, no V-cycle — is documented
   best-effort, so per instance it is held to validity and to never
   being worse than the streaming seed it started from; across the
   sweep it must agree with the oracle on at least 70% of instances
   (everything is fixed-seed, so the measured rates — 3/4, 8/10,
   18/24 — are exact; the floor leaves one instance of headroom for
   benign scoring changes while still catching real regressions). *)
let test_stream_vs_multilevel_feasibility () =
  let module Gp = Ppnpart_core.Gp in
  let module Config = Ppnpart_core.Config in
  let seeds = match mode with `Quick -> 4 | `Default -> 10 | `Full -> 24 in
  let agreements = ref 0 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xFA; seed |] in
    let n = 40 + (61 * seed mod 260) in
    let k = 2 + (seed mod 5) in
    let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
    let name = Printf.sprintf "n=%d k=%d seed=%d" n k seed in
    let run mode =
      Gp.partition ~config:{ Config.default with Config.mode } g c
    in
    let ml = run Config.Multilevel in
    check_bool (name ^ ": multilevel oracle feasible") true ml.Gp.feasible;
    let hy = run Config.Hybrid in
    Types.check_partition ~n ~k hy.Gp.part;
    if hy.Gp.feasible then incr agreements;
    let stream_part, _ = Stream.partition g c in
    Types.check_partition ~n ~k stream_part;
    let stream_gd = Metrics.goodness g c stream_part in
    check_bool
      (name ^ ": hybrid never worse than its streaming seed")
      true
      (Metrics.compare_goodness hy.Gp.goodness stream_gd <= 0)
  done;
  check_bool
    (Printf.sprintf "hybrid agrees with the oracle on %d/%d (floor %d)"
       !agreements seeds (seeds * 7 / 10))
    true
    (!agreements >= seeds * 7 / 10)

(* --- raw streaming vs multilevel --- *)

(* The stage above holds the hybrid path to the oracle; this one holds
   the raw streamer, with no refinement behind it. Single-pass
   streaming solves fewer of the planted instances than the V-cycle,
   so its oracle-agreement floor is low (30%; measured 11/24 at
   default scale), but every instance must stay valid and the
   multilevel oracle must solve them all. Fixed seeds make the rates
   exact. *)
let test_sequential_stream_vs_multilevel () =
  let module Gp = Ppnpart_core.Gp in
  let module Config = Ppnpart_core.Config in
  let seeds = match mode with `Quick -> 8 | `Default -> 24 | `Full -> 48 in
  let ws = Workspace.create () in
  let seq_agree = ref 0 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xC4; seed |] in
    let n = 60 + (71 * seed mod 400) in
    let k = 2 + (seed mod 5) in
    let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
    let name = Printf.sprintf "n=%d k=%d seed=%d" n k seed in
    let ml =
      Gp.partition
        ~config:{ Config.default with Config.mode = Config.Multilevel }
        g c
    in
    check_bool (name ^ ": multilevel oracle feasible") true ml.Gp.feasible;
    let seq_part, _ = Stream.partition ~workspace:ws g c in
    Types.check_partition ~n ~k seq_part;
    if (Metrics.goodness g c seq_part).Metrics.violation = 0 then
      incr seq_agree
  done;
  let oracle_floor = seeds * 3 / 10 in
  check_bool
    (Printf.sprintf "sequential agrees with the oracle on %d/%d (floor %d)"
       !seq_agree seeds oracle_floor)
    true (!seq_agree >= oracle_floor)

(* --- incremental repartitioning vs the from-scratch oracle --- *)

(* Random edit sequences chained through [Gp.repartition]: each round
   edits the current graph (add/remove node/edge, weight bumps),
   repartitions from the retained labelling, and checks the result
   against a from-scratch run of the same edited graph. Asserted every
   round:

   - validity: the labelling fits the edited graph;
   - determinism: answers at pool width 1 and 4 are bit-identical
     (and so is a rerun with a reused workspace);
   - never-worse: an incremental answer is at least as good as the
     projected-and-seeded labelling it started from (its history head);
   - feasibility agreement: if the repartition says infeasible, the
     from-scratch oracle must agree — the fallback race inside
     [Gp.repartition] guarantees an instance the pipeline can solve is
     never reported infeasible just because it arrived as an edit. *)
let random_edits rng g =
  let module GE = Graph_edit in
  let n = Wgraph.n_nodes g in
  let pick () = Random.State.int rng n in
  let n_ops = 1 + Random.State.int rng 5 in
  let removed = Hashtbl.create 4 in
  let added_edges = Hashtbl.create 4 in
  let alive u = not (Hashtbl.mem removed u) in
  let ops = ref [] in
  for _ = 1 to n_ops do
    match Random.State.int rng 6 with
    | 0 ->
      let deg = Random.State.int rng 3 in
      let neighbors = ref [] in
      for _ = 1 to deg do
        let v = pick () in
        if alive v && not (List.mem_assoc v !neighbors) then
          neighbors := (v, 1 + Random.State.int rng 5) :: !neighbors
      done;
      ops :=
        GE.Add_node
          { weight = 1 + Random.State.int rng 6; neighbors = !neighbors }
        :: !ops
    | 1 ->
      let u = pick () in
      if alive u && n - Hashtbl.length removed > 4 then begin
        Hashtbl.replace removed u ();
        ops := GE.Remove_node u :: !ops
      end
    | 2 ->
      let u = pick () and v = pick () in
      if
        u <> v && alive u && alive v
        && (not (Wgraph.mem_edge g u v))
        && not (Hashtbl.mem added_edges (min u v, max u v))
      then begin
        Hashtbl.replace added_edges (min u v, max u v) ();
        ops := GE.Add_edge (u, v, 1 + Random.State.int rng 9) :: !ops
      end
    | 3 ->
      let u = pick () and v = pick () in
      if
        alive u && alive v && Wgraph.mem_edge g u v
        && not (Hashtbl.mem added_edges (min u v, max u v))
      then begin
        (* Mark it so a later Add/Set on the same pair is skipped. *)
        Hashtbl.replace added_edges (min u v, max u v) ();
        ops := GE.Remove_edge (u, v) :: !ops
      end
    | 4 ->
      let u = pick () in
      if alive u then
        ops := GE.Set_node_weight (u, 1 + Random.State.int rng 9) :: !ops
    | _ ->
      let u = pick () and v = pick () in
      if
        alive u && alive v && Wgraph.mem_edge g u v
        && not (Hashtbl.mem added_edges (min u v, max u v))
      then begin
        Hashtbl.replace added_edges (min u v, max u v) ();
        ops := GE.Set_edge_weight (u, v, 1 + Random.State.int rng 9) :: !ops
      end
  done;
  List.rev !ops

let test_repartition_vs_scratch () =
  let module Gp = Ppnpart_core.Gp in
  let module Config = Ppnpart_core.Config in
  let seeds = match mode with `Quick -> 4 | `Default -> 8 | `Full -> 20 in
  let rounds = match mode with `Quick -> 4 | `Default -> 6 | `Full -> 10 in
  let ws = Workspace.create () in
  let incremental = ref 0 and total = ref 0 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xED17; seed |] in
    let n = 50 + (73 * seed mod 200) in
    let k = 2 + (seed mod 4) in
    let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
    let g = ref g and prev = ref (Gp.partition g c).Gp.part in
    for round = 1 to rounds do
      let name = Printf.sprintf "seed %d round %d" seed round in
      let ops = random_edits rng !g in
      let run ~width ~workspace () =
        Ppnpart_exec.Pool.with_width width (fun () ->
            Gp.repartition ?workspace ~prev:!prev !g c ops)
      in
      let rp = run ~width:1 ~workspace:(Some ws) () in
      let rp4 = run ~width:4 ~workspace:None () in
      let n' = Wgraph.n_nodes rp.Gp.rp_graph in
      Types.check_partition ~n:n' ~k rp.Gp.rp_result.Gp.part;
      check_bool (name ^ ": width 1 = width 4") true
        (rp.Gp.rp_result.Gp.part = rp4.Gp.rp_result.Gp.part);
      incr total;
      if rp.Gp.rp_incremental then begin
        incr incremental;
        match rp.Gp.rp_result.Gp.history with
        | seed_gd :: _ ->
          check_bool (name ^ ": never worse than its seed") true
            (Metrics.compare_goodness rp.Gp.rp_result.Gp.goodness seed_gd
            <= 0)
        | [] -> Alcotest.fail (name ^ ": incremental result lost its history")
      end;
      if not rp.Gp.rp_result.Gp.feasible then begin
        let scratch = Gp.partition rp.Gp.rp_graph c in
        check_bool
          (name ^ ": infeasible repartition confirmed by the oracle")
          false scratch.Gp.feasible
      end;
      g := rp.Gp.rp_graph;
      prev := rp.Gp.rp_result.Gp.part
    done
  done;
  check_bool
    (Printf.sprintf "small edits mostly stay incremental (%d/%d)"
       !incremental !total)
    true
    (!incremental > !total / 2)

(* --- resident refinement state vs a rebuild every step --- *)

(* Two chains answer the same batch sequence: chain A carries a
   [Gp.resident] slot, so every id-stable batch patches the last
   answer's state ([Part_state.rebase]); chain B passes none and
   rebuilds the state from the labels every step. The walk is shaped
   like design-space exploration: an id-stable batch from
   [random_edits] is followed by its inverse, so the graph keeps
   returning to where it was instead of drifting into infeasibility.
   Mixed in are batches with node additions and removals, batches over
   the edit-ratio gate, and steps made infeasible by a node heavier
   than Rmax (reverted the step after), so every way the resident state
   is dropped and rebuilt gets exercised. Asserted at every step:
   identical labels, goodness, history, [rp_seeded] and
   [rp_incremental]. Chain A runs with [debug_checks], which validates
   every patched state from scratch ([Check.part_state]) before it is
   refined; the certificate-mismatch counter must stay at zero. *)
let inverse_batch g ops =
  let module GE = Graph_edit in
  List.rev_map
    (function
      | GE.Add_edge (u, v, _) -> GE.Remove_edge (u, v)
      | GE.Remove_edge (u, v) -> GE.Add_edge (u, v, Wgraph.edge_weight g u v)
      | GE.Set_node_weight (u, _) ->
        GE.Set_node_weight (u, Wgraph.node_weight g u)
      | GE.Set_edge_weight (u, v, _) ->
        GE.Set_edge_weight (u, v, Wgraph.edge_weight g u v)
      | GE.Add_node _ | GE.Remove_node _ -> invalid_arg "inverse_batch")
    ops

let test_resident_vs_rebuild () =
  let module Gp = Ppnpart_core.Gp in
  let module Config = Ppnpart_core.Config in
  let module GE = Graph_edit in
  let sequences, steps =
    match mode with `Quick -> (3, 50) | `Default -> (4, 60) | `Full -> (4, 500)
  in
  let id_stable ops =
    List.filter
      (function GE.Add_node _ | GE.Remove_node _ -> false | _ -> true)
      ops
  in
  (* A short cycle budget keeps the full-pipeline fallback of the
     infeasible steps cheap; both chains share it. *)
  let config = { Config.default with Config.max_cycles = 2 } in
  let ((), snap) =
    Ppnpart_obs.Metrics_registry.with_registry @@ fun () ->
    for seq = 1 to sequences do
      let rng = Random.State.make [| 0x5E51; seq |] in
      let n = 60 + (97 * seq mod 240) in
      let k = 2 + (seq mod 4) in
      let g0, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
      (* Slack for the node additions and removals, which are not
         undone: infeasible steps should come from the heavy-node
         draws, not from drift. *)
      let c =
        Types.constraints ~k ~bmax:((3 * c.Types.bmax) + 20)
          ~rmax:(c.Types.rmax * 3 / 2)
      in
      let prev0 = (Gp.partition ~config g0 c).Gp.part in
      let resident = Gp.resident () in
      let ws = Workspace.create () in
      let a = ref (g0, prev0) and b = ref (g0, prev0) in
      let undo = ref [] in
      for step = 1 to steps do
        let name = Printf.sprintf "sequence %d step %d" seq step in
        let g = fst !a in
        let n = Wgraph.n_nodes g in
        let ops =
          match !undo with
          | _ :: _ as ops ->
            undo := [];
            ops
          | [] ->
            let draw = Random.State.int rng 100 in
            if draw < 60 then begin
              let ops =
                match id_stable (random_edits rng g) with
                | [] -> [ GE.Set_node_weight (Random.State.int rng n, 1) ]
                | ops -> ops
              in
              undo := inverse_batch g ops;
              ops
            end
            else if draw < 75 then random_edits rng g
            else if draw < 85 then
              (* Over the gate: a third of the nodes re-estimated, each
                 to its current weight. *)
              List.init ((n / 3) + 1) (fun i ->
                  let u = i * n / ((n / 3) + 1) in
                  GE.Set_node_weight (u, Wgraph.node_weight g u))
            else if draw < 93 then begin
              let u = Random.State.int rng n in
              let ops = [ GE.Set_node_weight (u, c.Types.rmax + 1) ] in
              undo := inverse_batch g ops;
              ops
            end
            else []
        in
        let run chain ~config ?resident () =
          let g, prev = !chain in
          let rp =
            Gp.repartition ~config ~workspace:ws ?resident ~prev g c ops
          in
          chain := (rp.Gp.rp_graph, rp.Gp.rp_result.Gp.part);
          rp
        in
        let ra =
          run a ~config:{ config with Config.debug_checks = true } ~resident ()
        in
        let rb = run b ~config () in
        let same what x y = check_bool (name ^ ": " ^ what) true (x = y) in
        same "labels" ra.Gp.rp_result.Gp.part rb.Gp.rp_result.Gp.part;
        same "goodness" ra.Gp.rp_result.Gp.goodness rb.Gp.rp_result.Gp.goodness;
        same "feasible" ra.Gp.rp_result.Gp.feasible rb.Gp.rp_result.Gp.feasible;
        same "history" ra.Gp.rp_result.Gp.history rb.Gp.rp_result.Gp.history;
        same "seeded" ra.Gp.rp_seeded rb.Gp.rp_seeded;
        same "incremental" ra.Gp.rp_incremental rb.Gp.rp_incremental
      done
    done
  in
  let count name =
    Option.value ~default:0
      (List.assoc_opt name snap.Ppnpart_obs.Metrics_registry.counters)
  in
  check_int "certificate mismatches" 0
    (count "gp.repartition.certificate_mismatch");
  let patched = count "gp.repartition.resident" in
  check_bool
    (Printf.sprintf "resident state patched on most steps (%d of %d)" patched
       (sequences * steps))
    true
    (patched > sequences * steps / 3);
  List.iter
    (fun reason ->
      check_bool
        (Printf.sprintf "rebuild reason %s exercised" reason)
        true
        (count ("gp.repartition.rebuilt." ^ reason) > 0))
    [ "gate"; "node_ids"; "new_state"; "fallback" ];
  check_bool "every patched state validated" true
    (count "check.gp.repartition.state" >= patched)

(* --- spliced Graph_edit.apply vs the Edge_list oracle --- *)

(* [Graph_edit.apply] splices the edited CSR straight from the base
   arrays; [Graph_edit_oracle] is the rebuild it replaced (every edge
   through [Edge_list], one global sort, [Wgraph.build]). On every batch
   the two must return identical CSR arrays, node maps and stats, or
   raise [Invalid_edit] with the same message. *)
let edit_outcome apply g ops =
  match apply g ops with
  | g', node_map, stats ->
    Ok
      ( (g'.Wgraph.xadj, g'.Wgraph.adjncy, g'.Wgraph.adjwgt, g'.Wgraph.vwgt),
        node_map,
        stats )
  | exception Graph_edit.Invalid_edit msg -> Error msg

let check_splice name g ops =
  let arr = Alcotest.(array int) in
  match
    ( edit_outcome Graph_edit.apply g ops,
      edit_outcome Graph_edit_oracle.apply g ops )
  with
  | Ok ((xadj, adjncy, adjwgt, vwgt), map, st),
    Ok ((xadj', adjncy', adjwgt', vwgt'), map', st') ->
    Alcotest.check arr (name ^ ": xadj") xadj' xadj;
    Alcotest.check arr (name ^ ": adjncy") adjncy' adjncy;
    Alcotest.check arr (name ^ ": adjwgt") adjwgt' adjwgt;
    Alcotest.check arr (name ^ ": vwgt") vwgt' vwgt;
    Alcotest.check arr (name ^ ": node_map") map' map;
    check_bool (name ^ ": stats") true (st = st');
    true
  | Error msg, Error msg' ->
    Alcotest.(check string) (name ^ ": Invalid_edit message") msg' msg;
    false
  | Ok _, Error msg ->
    Alcotest.failf "%s: oracle raised %S, splice did not" name msg
  | Error msg, Ok _ ->
    Alcotest.failf "%s: splice raised %S, oracle did not" name msg

(* A batch of all six ops drawn against a model of the graph as the
   batch edits it (live handles, current edges), so most batches are
   valid and reach the rebuild. Weights start at 0 to cover zero-weight
   nodes and edges. With [bad], one op somewhere in the batch is
   malformed in a random way, to compare error messages too. *)
let random_splice_batch rng g ~bad =
  let module GE = Graph_edit in
  let next = ref (Wgraph.n_nodes g) in
  let dead = Hashtbl.create 8 in
  let edges = Hashtbl.create 64 in
  Wgraph.iter_edges g (fun u v w -> Hashtbl.replace edges (u, v) w);
  let key u v = (min u v, max u v) in
  let live () =
    let rec go tries =
      if !next = 0 then None
      else
        let u = Random.State.int rng !next in
        if not (Hashtbl.mem dead u) then Some u
        else if tries = 0 then None
        else go (tries - 1)
    in
    go 8
  in
  let incident u =
    Hashtbl.fold
      (fun (a, b) _ acc ->
        if a = u then b :: acc else if b = u then a :: acc else acc)
      edges []
    |> List.sort compare
  in
  let wgt () = Random.State.int rng 10 in
  let malformed () =
    let u = Option.value ~default:0 (live ()) in
    match Random.State.int rng 7 with
    | 0 -> GE.Set_node_weight (!next + Random.State.int rng 3, 1)
    | 1 -> GE.Add_edge (u, u, 1)
    | 2 -> GE.Set_node_weight (u, -1 - Random.State.int rng 3)
    | 3 -> GE.Add_node { weight = 1; neighbors = [ (u, 1); (u, 2) ] }
    | 4 -> (
      match Hashtbl.fold (fun k _ _ -> Some k) edges None with
      | Some (a, b) -> GE.Add_edge (b, a, 1)
      | None -> GE.Remove_edge (u, u))
    | 5 -> (
      match Hashtbl.fold (fun k () _ -> Some k) dead None with
      | Some d -> GE.Remove_node d
      | None -> GE.Remove_node (-1))
    | _ -> GE.Set_edge_weight (u, !next, 1)
  in
  let n_ops = Random.State.int rng 9 in
  let bad_at = if bad then Random.State.int rng (n_ops + 1) else -1 in
  let ops = ref [] in
  for i = 0 to n_ops do
    if i = bad_at then ops := malformed () :: !ops
    else if i < n_ops then
      match (Random.State.int rng 6, live (), live ()) with
      | 0, _, _ ->
        let neighbors = ref [] in
        for _ = 1 to Random.State.int rng 4 do
          match live () with
          | Some v when not (List.mem_assoc v !neighbors) ->
            neighbors := (v, wgt ()) :: !neighbors
          | _ -> ()
        done;
        let u = !next in
        incr next;
        List.iter (fun (v, w) -> Hashtbl.replace edges (key u v) w) !neighbors;
        ops := GE.Add_node { weight = wgt (); neighbors = !neighbors } :: !ops
      | 1, Some u, _ ->
        List.iter (fun v -> Hashtbl.remove edges (key u v)) (incident u);
        Hashtbl.replace dead u ();
        ops := GE.Remove_node u :: !ops
      | 2, Some u, Some v when u <> v && not (Hashtbl.mem edges (key u v)) ->
        let w = wgt () in
        Hashtbl.replace edges (key u v) w;
        ops := GE.Add_edge (u, v, w) :: !ops
      | 3, Some u, _ -> (
        match incident u with
        | [] -> ()
        | vs ->
          let v = List.nth vs (Random.State.int rng (List.length vs)) in
          Hashtbl.remove edges (key u v);
          ops := GE.Remove_edge (v, u) :: !ops)
      | 4, Some u, _ -> ops := GE.Set_node_weight (u, wgt ()) :: !ops
      | 5, Some u, _ -> (
        match incident u with
        | [] -> ()
        | vs ->
          let v = List.nth vs (Random.State.int rng (List.length vs)) in
          let w = wgt () in
          Hashtbl.replace edges (key u v) w;
          ops := GE.Set_edge_weight (u, v, w) :: !ops)
      | _ -> ()
  done;
  List.rev !ops

let test_graph_edit_splice () =
  let module GE = Graph_edit in
  (* Pinned cases on a small graph with a zero-weight edge; node 2's
     neighbours are 0, 1, 3 and 4. *)
  let g =
    Wgraph.of_edges ~vwgt:[| 1; 2; 3; 4; 5; 6 |] 6
      [ (0, 1, 3); (0, 2, 1); (1, 2, 4); (2, 3, 2); (2, 4, 0); (3, 5, 7);
        (4, 5, 1) ]
  in
  List.iter
    (fun (name, ops) -> ignore (check_splice name g ops))
    [ ("empty batch", []);
      ("add isolated node", [ GE.Add_node { weight = 3; neighbors = [] } ]);
      ( "isolated node, then edges elsewhere",
        [ GE.Add_node { weight = 0; neighbors = [] };
          GE.Add_node { weight = 2; neighbors = [] };
          GE.Add_edge (6, 0, 1);
          GE.Remove_node 1 ] );
      ( "remove a node the batch added",
        [ GE.Add_node { weight = 1; neighbors = [ (0, 2); (3, 1) ] };
          GE.Remove_node 6 ] );
      ( "remove then re-add an edge",
        [ GE.Remove_edge (0, 1); GE.Add_edge (1, 0, 5) ] );
      ( "zero weights",
        [ GE.Add_edge (0, 4, 0);
          GE.Set_edge_weight (0, 1, 0);
          GE.Set_node_weight (3, 0);
          GE.Add_node { weight = 0; neighbors = [ (2, 0) ] } ] );
      ( "remove every neighbour edge of a node",
        [ GE.Remove_edge (2, 0); GE.Remove_edge (1, 2); GE.Remove_edge (2, 3);
          GE.Remove_edge (4, 2) ] );
      ( "remove every neighbour node of a node",
        [ GE.Remove_node 0; GE.Remove_node 1; GE.Remove_node 3;
          GE.Remove_node 4 ] );
      ("remove every node", List.init 6 (fun u -> GE.Remove_node u));
      ("removed node reused", [ GE.Remove_node 2; GE.Set_node_weight (2, 1) ]);
      ("out of range", [ GE.Add_edge (0, 6, 1) ]);
      ("self loop", [ GE.Add_edge (3, 3, 1) ]);
      ("negative weight", [ GE.Add_node { weight = -1; neighbors = [] } ]);
      ("existing edge", [ GE.Add_edge (5, 3, 1) ]);
      ("missing edge", [ GE.Remove_edge (0, 5) ]);
      ( "duplicate neighbour",
        [ GE.Add_node { weight = 1; neighbors = [ (1, 1); (1, 2) ] } ] ) ];
  ignore (check_splice "empty graph, empty batch" (Wgraph.of_edges 0 []) []);
  ignore
    (check_splice "empty graph, isolated node" (Wgraph.of_edges 0 [])
       [ GE.Add_node { weight = 1; neighbors = [] } ]);
  let batches =
    match mode with `Quick -> 60 | `Default -> 300 | `Full -> 2000
  in
  let valid = ref 0 in
  for seed = 1 to batches do
    let rng = Random.State.make [| 0x5911CE; seed |] in
    let n = Random.State.int rng 120 in
    let g =
      if n < 2 then Wgraph.of_edges n []
      else
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(0, 9) ~ew_range:(0, 9) rng
          ~n ~m:(min (n * (n - 1) / 2) (2 * n))
    in
    let ops = random_splice_batch rng g ~bad:(seed mod 4 = 0) in
    if check_splice (Printf.sprintf "seed %d (n=%d)" seed n) g ops then
      incr valid
  done;
  (* Malformed ops go into a quarter of the batches; the rest must
     mostly reach the rebuild, or the comparison above is vacuous. *)
  check_bool
    (Printf.sprintf "most batches reach the rebuild (%d/%d)" !valid batches)
    true
    (!valid >= batches * 2 / 3)

(* --- METIS reader vs oracle --- *)

(* Maximal runs of non-whitespace in [text], as (start, length). *)
let token_spans text =
  let spans = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      let blank = c = ' ' || c = '\t' || c = '\r' || c = '\n' in
      if blank && !start >= 0 then begin
        spans := (!start, i - !start) :: !spans;
        start := -1
      end
      else if (not blank) && !start < 0 then start := i)
    text;
  if !start >= 0 then
    spans := (!start, String.length text - !start) :: !spans;
  Array.of_list (List.rev !spans)

let splice text pos len ins =
  String.sub text 0 pos ^ ins
  ^ String.sub text (pos + len) (String.length text - pos - len)

let pick rng a = a.(Random.State.int rng (Array.length a))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* One textual defect (or none, for a row shuffle) applied to [text]:
   the name of the mutation and the mutated text. *)
let mutate rng text =
  let spans = token_spans text in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n_lines = Array.length lines (* header, n rows, "" *) in
  let join () = String.concat "\n" (Array.to_list lines) in
  (* A random neighbour/weight pair of a random row, as the row's line,
     its tokens and the pair's index; [None] for a row without one. *)
  let row_pair () =
    let l = 1 + Random.State.int rng (n_lines - 2) in
    let toks = Array.of_list (String.split_on_char ' ' lines.(l)) in
    let npairs = (Array.length toks - 1) / 2 in
    if npairs = 0 then None
    else Some (l, toks, 1 + (2 * Random.State.int rng npairs))
  in
  match Random.State.int rng 13 with
  | 0 ->
    let pos, len = pick rng spans in
    ("delete a token", splice text pos len "")
  | 1 ->
    let pos, len = pick rng spans in
    ( "duplicate a token",
      splice text (pos + len) 0 (" " ^ String.sub text pos len) )
  | 2 ->
    let a = pick rng spans and b = pick rng spans in
    let (p1, l1), (p2, l2) = if fst a <= fst b then (a, b) else (b, a) in
    if p1 = p2 then ("swap a token with itself", text)
    else
      ( "swap two tokens",
        String.sub text 0 p1 ^ String.sub text p2 l2
        ^ String.sub text (p1 + l1) (p2 - p1 - l1)
        ^ String.sub text p1 l1
        ^ String.sub text (p2 + l2) (String.length text - p2 - l2) )
  | 3 ->
    let pos, len = pick rng spans in
    let d = Char.chr (Char.code '0' + Random.State.int rng 10) in
    ( "change a digit",
      splice text (pos + Random.State.int rng len) 1 (String.make 1 d) )
  | 4 ->
    (* The neighbour/weight pairs of one row in a random order: the
       graph is unchanged, the row merely unsorted. *)
    let l = 1 + Random.State.int rng (n_lines - 2) in
    let toks = Array.of_list (String.split_on_char ' ' lines.(l)) in
    let pairs =
      Array.init
        ((Array.length toks - 1) / 2)
        (fun i -> (toks.(1 + (2 * i)), toks.(2 + (2 * i))))
    in
    shuffle rng pairs;
    lines.(l) <-
      String.concat " "
        (toks.(0)
        :: List.concat_map (fun (v, w) -> [ v; w ]) (Array.to_list pairs));
    ("shuffle a row", join ())
  | 5 ->
    let l = Random.State.int rng n_lines in
    ( "drop a line",
      String.concat "\n"
        (List.filteri (fun i _ -> i <> l) (Array.to_list lines)) )
  | 6 ->
    let l = Random.State.int rng n_lines in
    lines.(l) <- lines.(l) ^ "\n" ^ lines.(l);
    ("duplicate a line", join ())
  | 7 ->
    let l = Random.State.int rng n_lines in
    lines.(l) <- "% a comment 1 2 3\n" ^ lines.(l);
    ("insert a comment line", join ())
  | 8 ->
    let i = Random.State.int rng (String.length text + 1) in
    ("insert a carriage return", splice text i 0 "\r")
  | 9 ->
    let pos, len = spans.(2) in
    let fmt =
      pick rng
        [| "0"; "1"; "10"; "11"; "100"; "101"; "110"; "111"; "001"; "2";
           "1011" |]
    in
    ("change the fmt code", splice text pos len fmt)
  | 10 ->
    let pos, _ = pick rng spans in
    ("negate a token", splice text pos 0 "-")
  | 11 -> (
    match row_pair () with
    | None -> ("delete a pair from an empty row", text)
    | Some (l, toks, i) ->
      lines.(l) <-
        String.concat " "
          (List.filteri (fun j _ -> j <> i && j <> i + 1) (Array.to_list toks));
      ("delete a pair", join ()))
  | _ -> (
    match row_pair () with
    | None -> ("duplicate a pair in an empty row", text)
    | Some (l, toks, i) ->
      lines.(l) <- lines.(l) ^ " " ^ toks.(i) ^ " " ^ toks.(i + 1);
      ("duplicate a pair", join ()))

(* The number of node pairs not listed exactly once from each side with
   one equal, non-negative weight: the defects whose report order is
   each reader's own. A plain re-reading, called only on a text both
   readers tokenized to the end. *)
let defective_pairs text =
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           String.split_on_char ' ' l
           |> List.concat_map (String.split_on_char '\t')
           |> List.concat_map (String.split_on_char '\r')
           |> List.filter (( <> ) ""))
    |> List.filter (function [] -> false | t :: _ -> t.[0] <> '%')
  in
  match lines with
  | [] -> 0
  | header :: rows ->
    let fmt = match header with [ _; _; f ] -> int_of_string f | _ -> 0 in
    let skip = (fmt / 100 mod 10) + (fmt / 10 mod 10) in
    let ewgt = fmt mod 10 = 1 in
    let seen = Hashtbl.create 64 in
    let record u v w =
      let key = (min u v, max u v) in
      let up, down =
        Option.value ~default:([], []) (Hashtbl.find_opt seen key)
      in
      Hashtbl.replace seen key
        (if u < v then (w :: up, down) else (up, w :: down))
    in
    List.iteri
      (fun u row ->
        let rec go = function
          | [] -> ()
          | v :: w :: rest when ewgt ->
            record u (int_of_string v - 1) (int_of_string w);
            go rest
          | v :: rest ->
            record u (int_of_string v - 1) 1;
            go rest
        in
        go (List.filteri (fun i _ -> i >= skip) row))
      rows;
    Hashtbl.fold
      (fun _ pair acc ->
        match pair with
        | [ a ], [ b ] when a = b && a >= 0 -> acc
        | _ -> acc + 1)
      seen 0

let test_metis_reader_vs_oracle () =
  let seeds =
    match mode with `Quick -> 300 | `Default -> 1500 | `Full -> 20000
  in
  let accepted = ref 0 and same_msg = ref 0 and multi = ref 0 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0x3E715; seed |] in
    let n = 2 + Random.State.int rng 14 in
    (* n - 1 <= m <= min (2n - 2) (n (n - 1) / 2). *)
    let m = n - 1 + Random.State.int rng (min n ((n * (n - 1) / 2) - n + 2)) in
    let g =
      Ppnpart_workloads.Rand_graph.gnm ~vw_range:(0, 12) ~ew_range:(0, 12)
        rng ~n ~m
    in
    let what, text = mutate rng (Graph_io.to_metis g) in
    let name = Printf.sprintf "seed %d (%s): %S" seed what text in
    let run f =
      match f () with g -> Ok g | exception Failure msg -> Error msg
    in
    let whole = run (fun () -> Graph_io.of_metis text) in
    let pieces =
      run (fun () ->
          let r = Graph_io.Rows.create () in
          let pos = ref 0 and len = String.length text in
          while !pos < len do
            let l = min (len - !pos) (1 + Random.State.int rng 12) in
            Graph_io.Rows.feed r (String.sub text !pos l);
            pos := !pos + l
          done;
          Graph_io.Rows.finish r)
    in
    let oracle = run (fun () -> Metis_oracle.of_metis text) in
    (match (whole, pieces) with
    | Ok a, Ok b ->
      check_bool (name ^ ": pieces = whole") true (Wgraph.equal a b)
    | Error a, Error b ->
      Alcotest.(check string) (name ^ ": pieces = whole") a b
    | _ -> Alcotest.failf "%s: pieces and whole disagree on acceptance" name);
    match (whole, oracle) with
    | Ok a, Ok b ->
      incr accepted;
      check_bool (name ^ ": same graph as the oracle") true (Wgraph.equal a b)
    | Error a, Error b when a = b -> incr same_msg
    | Error a, Error b ->
      (* Several defects: the readers may name different ones. *)
      if defective_pairs text < 2 then
        Alcotest.failf "%s: single defect, reader %S, oracle %S" name a b;
      incr multi
    | Ok _, Error b -> Alcotest.failf "%s: accepted, oracle raised %S" name b
    | Error a, Ok _ -> Alcotest.failf "%s: raised %S, oracle accepted" name a
  done;
  (* Both outcomes must be well represented, or the stage is vacuous. *)
  check_bool
    (Printf.sprintf "accepted %d, same message %d, multi-defect %d of %d"
       !accepted !same_msg !multi seeds)
    true
    (!accepted >= seeds / 10 && !same_msg >= seeds / 3)

(* --- serialization round-trips --- *)

let test_io_round_trips () =
  let seeds = match mode with `Quick -> 8 | `Default -> 16 | `Full -> 40 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xF5; seed |] in
    let n = 2 + (29 * seed mod 150) in
    let g, _, _ = random_instance ~n ~k:2 rng in
    let name = Printf.sprintf "n=%d seed=%d" n seed in
    check_bool
      (name ^ ": METIS round-trip")
      true
      (Wgraph.equal g (Graph_io.of_metis (Graph_io.to_metis g)));
    check_bool
      (name ^ ": adjacency-matrix round-trip")
      true
      (Wgraph.equal g
         (Graph_io.of_adjacency_matrix (Graph_io.to_adjacency_matrix g)))
  done

let () =
  Alcotest.run "fuzz_partition"
    [ ( "differential",
        [ Alcotest.test_case "incremental state vs recomputation" `Quick
            test_apply_move_consistency;
          Alcotest.test_case "corrupted delta is caught" `Quick
            test_corrupted_delta_is_caught;
          Alcotest.test_case "bucket FM vs exact pass" `Quick
            test_bucket_vs_exact_pass;
          Alcotest.test_case "boundary refine vs legacy oracle" `Quick
            test_boundary_vs_oracle_refine;
          Alcotest.test_case "coarsen fast path vs legacy" `Quick
            test_contract_fast_vs_oracle;
          Alcotest.test_case "stream vs multilevel feasibility" `Quick
            test_stream_vs_multilevel_feasibility;
          Alcotest.test_case "sequential stream vs multilevel" `Quick
            test_sequential_stream_vs_multilevel;
          Alcotest.test_case "repartition vs scratch oracle" `Quick
            test_repartition_vs_scratch;
          Alcotest.test_case "resident state vs rebuild" `Quick
            test_resident_vs_rebuild;
          Alcotest.test_case "graph_edit splice vs oracle" `Quick
            test_graph_edit_splice;
          Alcotest.test_case "metis reader vs oracle" `Quick
            test_metis_reader_vs_oracle ] );
      ( "structure",
        [ Alcotest.test_case "matching validity" `Quick
            test_matching_validity;
          Alcotest.test_case "projection preserves labels" `Quick
            test_projection_preserves_labels;
          Alcotest.test_case "io round-trips" `Quick test_io_round_trips ] )
    ]
