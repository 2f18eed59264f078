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
module Csr_rows = Ppnpart_test_oracle.Csr_rows
module Stream_oracle = Ppnpart_test_oracle.Stream_oracle

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

(* --- stream kernel vs the pow oracle --- *)

(* [Stream.partition] and [Stream.seed_partial] score candidates with
   [r *. sqrt r] and certify each winner against an error margin,
   falling back to the exact [r ** 1.5] rescore when the margin cannot
   separate it; [Stream_oracle] always scores with [**]. The two must
   agree on labels, iterations and per-pass moves bit for bit, over
   heavy-tailed, uniform and symmetric graphs (symmetry and zero node
   weights make exact ties, which only the exact rescore may break),
   edge weights as drawn, a third of them 0 or all 0 (a weight-0 edge
   must list no candidate part, however many lead to one part), every
   kind of bound, 1 to 8 passes and fresh or reused workspaces.
   The stage also requires the exact rescore to have run, so a margin
   too wide to ever fail cannot pass it vacuously. *)
let stream_family rng seed =
  let module R = Ppnpart_workloads.Rand_graph in
  let vw = (1, 9) and ew = (1, 9) in
  match seed mod 5 with
  | 0 ->
    let scale = 3 + (seed mod 8) in
    let n = 1 lsl scale in
    let m = min (3 * n) (n * (n - 1) / 2) in
    ("rmat", R.rmat ~vw_range:vw ~ew_range:ew rng ~scale ~m)
  | 1 ->
    let n = 5 + Random.State.int rng 1500 in
    let m = min (n * (n - 1) / 2) (2 * n) in
    ("gnm", R.gnm ~vw_range:vw ~ew_range:ew rng ~n ~m)
  | 2 ->
    let n = 16 + Random.State.int rng 800 in
    ("planted", fst (R.random_partitionable rng ~n ~k:(2 + (seed mod 6))))
  | 3 ->
    let n = 3 + Random.State.int rng 500 in
    ( "cycle",
      Wgraph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n, 1))) )
  | _ ->
    let a = 1 + Random.State.int rng 20 and b = 1 + Random.State.int rng 20 in
    ( "bipartite",
      Wgraph.of_edges (a + b)
        (List.concat
           (List.init a (fun i -> List.init b (fun j -> (i, a + j, 1))))) )

let with_node_weights g vw =
  let n = Wgraph.n_nodes g in
  Wgraph.of_csr ~vwgt:(Array.make n vw) ~n ~xadj:(Array.copy g.Wgraph.xadj)
    ~adjncy:(Array.copy g.Wgraph.adjncy) ~adjwgt:(Array.copy g.Wgraph.adjwgt)
    ()

(* [g] with each edge's weight set to 0 where [zero ()] says so. *)
let with_zero_edges g zero =
  Wgraph.of_edges ~vwgt:g.Wgraph.vwgt (Wgraph.n_nodes g)
    (List.map (fun (u, v, w) -> (u, v, if zero () then 0 else w))
       (Wgraph.edges g))

(* A crafted near-tie: with k = 2 and no bounds, node 2's two candidate
   parts differ only in load (ratios one ulp apart), [**] rounds their
   penalties to the same double and [r *. sqrt r] does not. The exact
   tie goes to part 0, the lower id; a filter that trusted the one-ulp
   gap would pick the lighter part 1 (and, on one pass, keep it). *)
let near_tie_instance () =
  let vwgt = [| 8763887967500491; 8763887967500489; 1; 25490678955046582 |] in
  ( Wgraph.of_edges ~vwgt 4 [ (0, 2, 1); (1, 2, 1) ],
    Types.constraints ~k:2 ~bmax:max_int ~rmax:max_int )

let test_stream_kernel_vs_oracle () =
  let seeds = match mode with `Quick -> 60 | `Default -> 240 | `Full -> 800 in
  let ws = Workspace.create () in
  let exact = ref 0 in
  let count (snap : Ppnpart_obs.Metrics_registry.snapshot) =
    exact :=
      !exact
      + Option.value ~default:0
          (List.assoc_opt "stream.exact_rescores" snap.counters)
  in
  let g, c = near_tie_instance () in
  let (part, _), snap =
    Ppnpart_obs.Obs.with_registry (fun () ->
        Stream.partition ~max_iterations:1 g c)
  in
  count snap;
  check_bool "near-tie: labels" true
    (part = fst (Stream_oracle.partition ~max_iterations:1 g c));
  check_int "near-tie: the exact tie goes to part 0" 0 part.(2);
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0x57; seed |] in
    let family, g = stream_family rng seed in
    let weights, g =
      match (seed / 5) mod 3 with
      | 0 -> ("random", g)
      | 1 -> ("uniform", with_node_weights g 1)
      | _ -> ("zero", with_node_weights g 0)
    in
    let edges, g =
      let zrng = Random.State.make [| 0x0e; seed |] in
      match (seed / 15) mod 4 with
      | 2 ->
        ("third-0", with_zero_edges g (fun () -> Random.State.int zrng 3 = 0))
      | 3 -> ("all-0", with_zero_edges g (fun () -> true))
      | _ -> ("drawn", g)
    in
    let n = Wgraph.n_nodes g in
    let k = [| 2; 3; 4; 7; 16; 33; 64 |].(Random.State.int rng 7) in
    let rmax =
      if Random.State.bool rng then max_int
      else Wgraph.total_node_weight g / k
    in
    let bmax =
      match Random.State.int rng 3 with
      | 0 -> 0
      | 1 -> Wgraph.total_edge_weight g / (2 * k)
      | _ -> max_int
    in
    let c = Types.constraints ~k ~bmax ~rmax in
    let max_iterations = 1 + Random.State.int rng 8 in
    let workspace = if seed mod 2 = 0 then Some ws else None in
    let name =
      Printf.sprintf
        "%s n=%d %s weights %s edges k=%d rmax=%d bmax=%d iters=%d seed=%d"
        family n weights edges k rmax bmax max_iterations seed
    in
    let (part, st), snap =
      Ppnpart_obs.Obs.with_registry (fun () ->
          Stream.partition ?workspace ~max_iterations g c)
    in
    let opart, ost = Stream_oracle.partition ~max_iterations g c in
    check_bool (name ^ ": labels") true (part = opart);
    check_int (name ^ ": iterations") ost.Stream.iterations
      st.Stream.iterations;
    check_bool (name ^ ": moved") true (st.Stream.moved = ost.Stream.moved);
    check_bool (name ^ ": goodness") true
      (st.Stream.goodness = ost.Stream.goodness);
    (* Seed a partial labelling: the oracle's answer with holes. *)
    let holes =
      Array.map (fun p -> if Random.State.int rng 4 = 0 then -1 else p) opart
    in
    let mine = Array.copy holes and theirs = Array.copy holes in
    let seeded, snap' =
      Ppnpart_obs.Obs.with_registry (fun () ->
          Stream.seed_partial ?workspace g c mine)
    in
    check_int (name ^ ": seeded")
      (Stream_oracle.seed_partial g c theirs)
      seeded;
    check_bool (name ^ ": seed_partial labels") true (mine = theirs);
    count snap;
    count snap'
  done;
  check_bool
    (Printf.sprintf "exact rescore ran (%d visits)" !exact)
    true (!exact > 0)

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
    Ppnpart_obs.Obs.with_registry @@ fun () ->
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
    (count "gp.certificate_mismatch");
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
    (count "check.gp.repartition.state" >= patched);
  (* Chain [a] runs checked: every edited graph also gets the full
     [Wgraph.validate] sweep behind the edit-local check. *)
  check_int "every checked edit fully validated" (sequences * steps)
    (count "check.graph_edit.apply")

(* --- the certificate agrees with the search --- *)

(* Every answer's reported goodness comes from one [Metrics.quality]
   recomputation of its final labels, the certificate. The search
   keeps a goodness of its own: the refinement state's in multilevel
   and hybrid mode and in the incremental repartition, the stream
   state's in stream mode, the enumeration's for tiny [n <= k]. Where
   the two disagree, [gp.certificate_mismatch] counts it. Every mode
   runs here on random instances, half of them with a Bmax a third of
   the loose one so that V-cycles and the tabu rescue run, plus a
   resident repartition chain per instance under the loose bounds,
   where the answers stay incremental. The counter must stay 0, and
   every path must have produced answers. *)
let test_certificate_agrees () =
  let module Gp = Ppnpart_core.Gp in
  let module Config = Ppnpart_core.Config in
  let seeds = match mode with `Quick -> 6 | `Default -> 24 | `Full -> 100 in
  let config = { Config.default with Config.max_cycles = 3 } in
  let modes = [ Config.Multilevel; Config.Hybrid; Config.Stream ] in
  let tiny = ref 0 and infeasible = ref 0 in
  let ((), snap) =
    Ppnpart_obs.Obs.with_registry @@ fun () ->
    for seed = 1 to seeds do
      let rng = Random.State.make [| 0xCE27; seed |] in
      let k = 2 + Random.State.int rng 7 in
      (* Every fourth instance has n <= k: the exhaustive dispatch. *)
      let n =
        if seed mod 4 = 0 then 2 + Random.State.int rng (k - 1)
        else 12 + Random.State.int rng 200
      in
      if n <= k then incr tiny;
      let g, loose, _ = random_instance ~n ~k rng in
      let c =
        if seed mod 2 = 1 then
          Types.constraints ~k ~bmax:(loose.Types.bmax / 3)
            ~rmax:loose.Types.rmax
        else loose
      in
      List.iter
        (fun m ->
          let r = Gp.partition ~config:{ config with Config.mode = m } g c in
          if not r.Gp.feasible then incr infeasible)
        modes;
      let resident = Gp.resident () in
      let chain = ref (g, (Gp.partition ~config g loose).Gp.part) in
      for _ = 1 to 4 do
        let g, prev = !chain in
        let ops =
          List.filter
            (function
              | Graph_edit.Add_node _ | Graph_edit.Remove_node _ -> false
              | _ -> true)
            (random_edits rng g)
        in
        let rp = Gp.repartition ~config ~resident ~prev g loose ops in
        chain := (rp.Gp.rp_graph, rp.Gp.rp_result.Gp.part)
      done
    done
  in
  let count name =
    Option.value ~default:0
      (List.assoc_opt name snap.Ppnpart_obs.Metrics_registry.counters)
  in
  check_int "certificate mismatches" 0 (count "gp.certificate_mismatch");
  List.iter
    (fun (what, ran) -> check_bool (what ^ " exercised") true ran)
    [ ("exhaustive dispatch", !tiny > 0);
      ("infeasible answers", !infeasible > 0);
      ("V-cycles", count "gp.cycles" > 0);
      ("tabu rescue", count "tabu.steps" > 0);
      ("incremental repartition", count "gp.repartition.incremental" > 0);
      ("resident state", count "gp.repartition.resident" > 0) ]

(* --- the one-sweep certificate vs the composed metrics --- *)

(* [Metrics.quality] fills the loads and the bandwidth matrix in one
   sweep over the CSR arrays, each edge seen from both endpoints.
   [Metrics.cut], [bandwidth_matrix] and [part_resources] each walk the
   graph on their own, every edge once. On every instance each field of
   the record must equal its recomposition from those three. Labellings
   leave some parts empty, some graphs have no edges or no node weight,
   and the bounds are drawn so that both excess totals are often
   nonzero. *)
let test_quality_vs_composed () =
  let seeds = match mode with `Quick -> 60 | `Default -> 300 | `Full -> 1500 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xC3; seed |] in
    let n = sizes.(seed mod Array.length sizes) in
    let k = 2 + Random.State.int rng 15 in
    let m = Random.State.int rng (min (n * (n - 1) / 2) (4 * n) + 1) in
    let vw_range = if seed mod 7 = 0 then (0, 0) else (0, 9) in
    let g =
      Ppnpart_workloads.Rand_graph.gnm ~connected:false ~vw_range
        ~ew_range:(0, 9) rng ~n ~m
    in
    let used = Array.init k (fun p -> p) in
    for i = k - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = used.(i) in
      used.(i) <- used.(j);
      used.(j) <- t
    done;
    let n_used = 1 + Random.State.int rng k in
    let part = Array.init n (fun _ -> used.(Random.State.int rng n_used)) in
    let c =
      Types.constraints ~k
        ~bmax:(Random.State.int rng ((Wgraph.total_edge_weight g / k) + 2))
        ~rmax:(Random.State.int rng (Wgraph.total_node_weight g + 2))
    in
    let q = Metrics.quality g c part in
    let name what = Printf.sprintf "seed %d (n=%d k=%d): %s" seed n k what in
    check_int (name "cut") (Metrics.cut g part) q.Metrics.cut;
    check_bool (name "bandwidth") true
      (q.Metrics.bandwidth = Metrics.bandwidth_matrix g ~k part);
    check_int (name "max_bandwidth")
      (Metrics.max_local_bandwidth g ~k part)
      q.Metrics.max_bandwidth;
    check_int (name "bw_excess")
      (Metrics.bandwidth_excess g c part)
      q.Metrics.bw_excess;
    check_bool (name "loads") true
      (q.Metrics.loads = Metrics.part_resources g ~k part);
    check_int (name "max_resources")
      (Metrics.max_resource g ~k part)
      q.Metrics.max_resources;
    check_int (name "res_excess")
      (Metrics.resource_excess g c part)
      q.Metrics.res_excess;
    check_bool (name "imbalance") true
      (Float.equal (Metrics.imbalance g ~k part) q.Metrics.imbalance)
  done

(* --- gain bucket vs a list reference --- *)

(* The reference holds the present nodes as [(node, gain, stamp)], the
   stamp counting insertions. The bucket keeps each gain slot as a
   stack, so a pop returns, among the nodes of maximal gain, the one
   inserted last. Random insert, remove, adjust, pop_max and clear
   sequences run against both, in rounds that each take the bucket from
   one [Workspace] at a fresh size and gain bound, sometimes smaller
   than the last (the reuse path), after a partial drain or none. *)
let test_bucket_vs_reference () =
  let seeds = match mode with `Quick -> 8 | `Default -> 24 | `Full -> 64 in
  let steps = match mode with `Quick -> 200 | `Default -> 500 | `Full -> 1000 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xB0; seed |] in
    let ws = Workspace.create () in
    for round = 1 to 4 do
      let n = 1 + Random.State.int rng 200 in
      let max_gain = Random.State.int rng 300 in
      let b = Workspace.bucket ws ~n ~max_gain in
      let name what = Printf.sprintf "seed %d round %d: %s" seed round what in
      let reference = ref [] and stamp = ref 0 in
      let gain () = Random.State.int rng ((2 * max_gain) + 1) - max_gain in
      let top () =
        List.fold_left
          (fun best ((_, g, s) as e) ->
            match best with
            | Some (_, bg, bs) when bg > g || (bg = g && bs > s) -> best
            | _ -> Some e)
          None !reference
        |> Option.map (fun (u, g, _) -> (u, g))
      in
      let add u g =
        incr stamp;
        reference := (u, g, !stamp) :: !reference
      in
      let drop u = reference := List.filter (fun (v, _, _) -> v <> u) !reference in
      let present u = List.exists (fun (v, _, _) -> v = u) !reference in
      let same what =
        check_int (name (what ^ ": cardinal")) (List.length !reference)
          (Bucket.cardinal b);
        for u = 0 to n - 1 do
          if Bucket.mem b u <> present u then
            Alcotest.failf "%s" (name (Printf.sprintf "%s: mem %d" what u))
        done;
        List.iter
          (fun (u, g, _) -> check_int (name (what ^ ": gain")) g (Bucket.gain b u))
          !reference;
        check_bool (name (what ^ ": peek_max")) true (Bucket.peek_max b = top ())
      in
      same "fresh";
      for step = 1 to steps do
        let u = Random.State.int rng n in
        let what = Printf.sprintf "step %d" step in
        (match Random.State.int rng 10 with
        | 0 | 1 | 2 ->
          if not (present u) then begin
            let g = gain () in
            Bucket.insert b u g;
            add u g
          end
        | 3 | 4 ->
          if present u then begin
            Bucket.remove b u;
            drop u
          end
        | 5 | 6 ->
          if present u then begin
            let g = gain () in
            Bucket.adjust b u g;
            drop u;
            add u g
          end
        | 7 | 8 ->
          let expect = top () in
          check_bool (name (what ^ ": pop_max")) true (Bucket.pop_max b = expect);
          Option.iter (fun (v, _) -> drop v) expect
        | _ ->
          if Random.State.int rng 8 = 0 then begin
            Bucket.clear b;
            reference := []
          end);
        same what
      done;
      (* A partial drain; the next round's [Workspace.bucket] clears
         what is left. *)
      for _ = 1 to Random.State.int rng (List.length !reference + 1) do
        let expect = top () in
        check_bool (name "drain: pop_max") true (Bucket.pop_max b = expect);
        Option.iter (fun (v, _) -> drop v) expect
      done
    done
  done

(* --- the FM gain cap read from the state vs the graph --- *)

(* [Part_state]'s cached maximum weighted degree ([max_wdeg]) must
   equal [max 1] of [Wgraph.weighted_degree] over the state's graph
   after every way a state comes about: [init],
   [init_projected] down a coarsening hierarchy, [rebase] on random
   id-stable batches, and random [apply_move] sequences. *)
let test_max_weighted_degree () =
  let seeds = match mode with `Quick -> 12 | `Default -> 24 | `Full -> 64 in
  let batches = match mode with `Quick -> 10 | `Default -> 20 | `Full -> 60 in
  let module GE = Graph_edit in
  for seed = 1 to seeds do
    let rng = Random.State.make [| 0xD6; seed |] in
    let n = sizes.(seed mod Array.length sizes) in
    let k = 2 + (seed mod 15) in
    let g, c, part0 = random_instance ~n ~k rng in
    let check what (st : Part_state.t) =
      let g = st.Part_state.g in
      let expect = ref 1 in
      for u = 0 to Wgraph.n_nodes g - 1 do
        expect := max !expect (Wgraph.weighted_degree g u)
      done;
      check_int
        (Printf.sprintf "seed %d (n=%d k=%d): %s" seed n k what)
        !expect
        st.Part_state.max_wdeg
    in
    let st = ref (Part_state.init g c part0) in
    check "init" !st;
    let conn = Array.make k 0 in
    let moves () =
      for _ = 1 to 1 + Random.State.int rng 40 do
        let u = Random.State.int rng n in
        let t = Random.State.int rng k in
        if t <> !st.Part_state.part.(u) then begin
          Part_state.connectivity !st conn u;
          Part_state.apply_move !st u t conn
        end
      done
    in
    moves ();
    check "apply_move" !st;
    for b = 1 to batches do
      let g = !st.Part_state.g in
      let ops =
        List.filter
          (function GE.Add_node _ | GE.Remove_node _ -> false | _ -> true)
          (random_edits rng g)
      in
      match GE.apply g ops with
      | exception GE.Invalid_edit _ -> ()
      | g', _, stats ->
        st := Part_state.rebase !st g' ~touched:stats.GE.touched_nodes;
        check (Printf.sprintf "rebase %d" b) !st;
        moves ();
        check (Printf.sprintf "apply_move after rebase %d" b) !st
    done;
    let h = Coarsen.build ~target:8 rng g in
    let coarsest = Coarsen.coarsest h in
    st :=
      Part_state.init coarsest c
        (Initial.random_kway rng coarsest ~k);
    check "init on the coarsest level" !st;
    for level = Coarsen.levels h - 2 downto 0 do
      st :=
        Part_state.init_projected ~map:h.Coarsen.maps.(level) !st
          (Coarsen.graph_at h level);
      check (Printf.sprintf "init_projected to level %d" level) !st
    done
  done

(* --- spliced Graph_edit.apply vs the Edge_list oracle --- *)

(* [Graph_edit.apply] splices the edited CSR straight from the base
   arrays; [Graph_edit_oracle] is the rebuild it replaced (every edge
   through [Edge_list], one global sort, [Wgraph.build]). On every batch
   the two must return identical CSR arrays, node maps and stats, or
   raise [Invalid_edit] with the same message. The splice is checked
   edit-locally ([Wgraph.of_splice]); the full [Wgraph.of_csr] sweep must
   accept the same arrays. [Some (g', stats)] for a valid batch. *)
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
    let g' =
      match
        Wgraph.of_csr ~vwgt ~n:(Array.length vwgt) ~xadj ~adjncy ~adjwgt ()
      with
      | g' -> g'
      | exception Invalid_argument msg ->
        Alcotest.failf "%s: of_csr rejects the splice: %s" name msg
    in
    Some (g', map, st)
  | Error msg, Error msg' ->
    Alcotest.(check string) (name ^ ": Invalid_edit message") msg' msg;
    None
  | Ok _, Error msg ->
    Alcotest.failf "%s: oracle raised %S, splice did not" name msg
  | Error msg, Ok _ ->
    Alcotest.failf "%s: splice raised %S, oracle did not" name msg

(* One random corruption of one spliced row: an asymmetric weight, a
   dropped entry (its mirror stays), a duplicate, a self loop or an
   out-of-range neighbour. Each breaks the CSR invariants, so the
   edit-local check must reject the arrays, as the full sweep does. *)
let check_corrupted_splice rng name g (g', map, (st : Graph_edit.stats)) =
  let rows = st.Graph_edit.touched_nodes in
  match List.filter (fun u -> Wgraph.degree g' u > 0) (Array.to_list rows) with
  | [] -> ()
  | candidates ->
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let u = pick candidates in
    let n = Wgraph.n_nodes g' and d = Wgraph.degree g' u in
    let i = Random.State.int rng d in
    let set i e l = List.mapi (fun j x -> if j = i then e else x) l in
    let kind, f =
      match Random.State.int rng 5 with
      | 0 ->
        let reweigh l = set i (fst (List.nth l i), 1 + snd (List.nth l i)) l in
        ("asymmetric", reweigh)
      | 1 -> ("dropped", List.filteri (fun j _ -> j <> i))
      | 2 when d >= 2 ->
        let i = max i 1 in
        ("duplicate", fun l -> set i (List.nth l (i - 1)) l)
      | 3 -> ("self loop", fun l -> set i (u, snd (List.nth l i)) l)
      | _ -> ("out of range", fun l -> set i (n, snd (List.nth l i)) l)
    in
    let xadj, adjncy, adjwgt = Csr_rows.with_row g' u f in
    let vwgt = g'.Wgraph.vwgt in
    let rejects who build =
      match build () with
      | (_ : Wgraph.t) ->
        Alcotest.failf "%s: %s accepts a %s entry in row %d" name who kind u
      | exception Invalid_argument _ -> ()
    in
    rejects "of_csr" (fun () ->
        Wgraph.of_csr ~vwgt ~n ~xadj ~adjncy ~adjwgt ());
    rejects "of_splice" (fun () ->
        Wgraph.of_splice g
          ?node_map:(if st.Graph_edit.removed_nodes > 0 then Some map else None)
          ~vwgt ~xadj ~adjncy ~adjwgt ~rows ())

(* A batch of all six ops drawn against a model of the graph as the
   batch edits it (live handles, current edges), so most batches are
   valid and reach the rebuild. Weights start at 0 to cover zero-weight
   nodes and edges. With [bad], one op somewhere in the batch is
   malformed in a random way, to compare error messages too. [kind]
   narrows the draw: [`Id_stable] has no node op, so the splice keeps
   node ids, and [`Weights] only re-weights nodes, so no row changes. *)
let random_splice_batch rng g ~bad ~kind =
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
  let n_ops =
    if kind = `Weights then 1 + Random.State.int rng 8
    else Random.State.int rng 9
  in
  let draw () =
    match kind with
    | `All -> Random.State.int rng 6
    | `Id_stable -> 2 + Random.State.int rng 4
    | `Weights -> 4
  in
  let bad_at = if bad then Random.State.int rng (n_ops + 1) else -1 in
  let ops = ref [] in
  for i = 0 to n_ops do
    if i = bad_at then ops := malformed () :: !ops
    else if i < n_ops then
      match (draw (), live (), live ()) with
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
    (fun (name, ops) -> ignore (check_splice name g ops : _ option))
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
  let valid = ref 0 and id_stable = ref 0 and weights_only = ref 0 in
  let node_op = function
    | GE.Add_node _ | GE.Remove_node _ -> true
    | _ -> false
  in
  for seed = 1 to batches do
    let rng = Random.State.make [| 0x5911CE; seed |] in
    (* A quarter of the seeds each draw id-stable and weight-only
       batches; malformed ops go into another quarter. *)
    let kind =
      match seed mod 8 with 1 | 5 -> `Id_stable | 2 | 6 -> `Weights | _ -> `All
    in
    let n = Random.State.int rng 120 in
    let n = if kind = `Weights then max n 1 else n in
    let g =
      if n < 2 then Wgraph.of_edges n []
      else
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(0, 9) ~ew_range:(0, 9) rng
          ~n ~m:(min (n * (n - 1) / 2) (2 * n))
    in
    let ops = random_splice_batch rng g ~bad:(seed mod 4 = 0) ~kind in
    let name = Printf.sprintf "seed %d (n=%d)" seed n in
    match check_splice name g ops with
    | None -> ()
    | Some edited ->
      incr valid;
      if not (List.exists node_op ops) then incr id_stable;
      let reweigh = function GE.Set_node_weight _ -> true | _ -> false in
      if ops <> [] && List.for_all reweigh ops then incr weights_only;
      check_corrupted_splice rng name g edited
  done;
  (* Malformed ops go into a quarter of the batches; the rest must
     mostly reach the rebuild, or the comparison above is vacuous. *)
  check_bool
    (Printf.sprintf "most batches reach the rebuild (%d/%d)" !valid batches)
    true
    (!valid >= batches * 2 / 3);
  check_bool
    (Printf.sprintf "a quarter of the batches are id-stable (%d/%d)"
       !id_stable batches)
    true
    (!id_stable >= batches / 4);
  check_bool
    (Printf.sprintf "a quarter of the batches are weight-only (%d/%d)"
       !weights_only batches)
    true
    (!weights_only >= batches / 4)

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
  (* [text] with a pair of neighbour [f l] and weight 1 inserted at a
     random place in a random row [l] (so [l] is its 1-based node id):
     one defect, which either reader reports first. *)
  let insert_pair what f =
    let l = 1 + Random.State.int rng (n_lines - 2) in
    let toks = String.split_on_char ' ' lines.(l) in
    let slots = ((List.length toks - 1) / 2) + 1 in
    let at = 1 + (2 * Random.State.int rng slots) in
    let before = List.filteri (fun i _ -> i < at) toks
    and after = List.filteri (fun i _ -> i >= at) toks in
    lines.(l) <- String.concat " " (before @ (f l :: "1" :: after));
    (what, join ())
  in
  (* The offset of a random space: the header always has two. *)
  let space () =
    let sp =
      List.init (String.length text) Fun.id
      |> List.filter (fun i -> text.[i] = ' ')
    in
    List.nth sp (Random.State.int rng (List.length sp))
  in
  (* A random token respelled by [f]. *)
  let respell f =
    let pos, len = pick rng spans in
    splice text pos len (f (String.sub text pos len))
  in
  let rec binary i =
    if i < 2 then string_of_int i else binary (i / 2) ^ string_of_int (i mod 2)
  in
  match Random.State.int rng 25 with
  (* 13-24: the token and separator forms the fused row loop hands
     over to the per-token path, and the neighbours it hands over. *)
  | 13 -> ("tab separator", splice text (space ()) 1 "\t")
  | 14 ->
    ("blank run", splice text (space ()) 1 (pick rng [| "  "; " \t"; "\t " |]))
  | 15 ->
    let l = Random.State.int rng n_lines in
    lines.(l) <- lines.(l) ^ pick rng [| " "; "  "; "\t"; " \t" |];
    ("trailing blanks", join ())
  | 16 -> ("crlf line ends", String.concat "\r\n" (Array.to_list lines))
  | 17 -> ("plus sign", respell (fun tok -> "+" ^ tok))
  | 18 ->
    let radix = Random.State.int rng 3 in
    ( "radix spelling",
      respell (fun tok ->
          match int_of_string_opt tok with
          | None -> tok
          | Some i when radix = 0 -> Printf.sprintf "0x%x" i
          | Some i when radix = 1 -> Printf.sprintf "0o%o" i
          | Some i -> "0b" ^ binary i) )
  | 19 ->
    ( "underscore spelling",
      respell (fun tok ->
          String.sub tok 0 1 ^ "_" ^ String.sub tok 1 (String.length tok - 1)) )
  | 20 ->
    (* Zero-padded, the same value; padded with nines, over [max_int]. *)
    let pad = if Random.State.bool rng then '0' else '9' in
    ( "19-digit token",
      respell (fun tok ->
          String.make (max 0 (19 - String.length tok)) pad ^ tok) )
  | 21 -> ("digits glued to a letter", respell (fun tok -> tok ^ "a"))
  | 22 -> insert_pair "neighbour 0" (fun _ -> "0")
  | 23 ->
    let n = int_of_string (String.sub text (fst spans.(0)) (snd spans.(0))) in
    insert_pair "neighbour n+1" (fun _ -> string_of_int (n + 1))
  | 24 -> insert_pair "self loop" string_of_int
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
  let kinds = Hashtbl.create 32 in
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
    Hashtbl.replace kinds what
      (1 + Option.value ~default:0 (Hashtbl.find_opt kinds what));
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
  (* Every hand-over form must have run, and both outcomes must be well
     represented, or the stage is vacuous. *)
  List.iter
    (fun what ->
      check_bool
        (Printf.sprintf "mutation %S ran (%d times)" what
           (Option.value ~default:0 (Hashtbl.find_opt kinds what)))
        true (Hashtbl.mem kinds what))
    [ "tab separator"; "blank run"; "trailing blanks"; "crlf line ends";
      "plus sign"; "radix spelling"; "underscore spelling"; "19-digit token";
      "digits glued to a letter"; "neighbour 0"; "neighbour n+1"; "self loop" ];
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
          Alcotest.test_case "stream kernel vs oracle" `Quick
            test_stream_kernel_vs_oracle;
          Alcotest.test_case "repartition vs scratch oracle" `Quick
            test_repartition_vs_scratch;
          Alcotest.test_case "resident state vs rebuild" `Quick
            test_resident_vs_rebuild;
          Alcotest.test_case "certificate agrees with search" `Quick
            test_certificate_agrees;
          Alcotest.test_case "graph_edit splice vs oracle" `Quick
            test_graph_edit_splice;
          Alcotest.test_case "metis reader vs oracle" `Quick
            test_metis_reader_vs_oracle;
          Alcotest.test_case "quality sweep vs composed metrics" `Quick
            test_quality_vs_composed;
          Alcotest.test_case "max weighted degree from state" `Quick
            test_max_weighted_degree;
          Alcotest.test_case "bucket vs list reference" `Quick
            test_bucket_vs_reference ] );
      ( "structure",
        [ Alcotest.test_case "matching validity" `Quick
            test_matching_validity;
          Alcotest.test_case "projection preserves labels" `Quick
            test_projection_preserves_labels;
          Alcotest.test_case "io round-trips" `Quick test_io_round_trips ] )
    ]
