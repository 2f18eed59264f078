(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) plus the ablation and scaling studies listed in
   DESIGN.md §4.

   Usage:  dune exec bench/main.exe [-- SECTION]
   where SECTION is one of: tables figures kernels ablation-matching
   ablation-seeds ablation-cycles scaling timing all (default: all). *)

open Ppnpart_graph
open Ppnpart_partition
module PG = Ppnpart_workloads.Paper_graphs
module Gp = Ppnpart_core.Gp
module Config = Ppnpart_core.Config
module Pool = Ppnpart_exec.Pool
module Report = Ppnpart_core.Report
module Run_report = Ppnpart_core.Run_report
module Metis_like = Ppnpart_baselines.Metis_like
module Coarsen_oracle = Ppnpart_test_oracle.Coarsen_oracle
module Refine_oracle = Ppnpart_test_oracle.Refine_oracle

let out_dir = "bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* Strip all whitespace outside string literals: a pretty-printed JSON
   document becomes one line, suitable for a JSONL history file. *)
let minify_json s =
  let b = Buffer.create (String.length s) in
  let in_str = ref false and escaped = ref false in
  String.iter
    (fun ch ->
      if !in_str then begin
        Buffer.add_char b ch;
        if !escaped then escaped := false
        else if ch = '\\' then escaped := true
        else if ch = '"' then in_str := false
      end
      else
        match ch with
        | ' ' | '\t' | '\n' | '\r' -> ()
        | '"' ->
          in_str := true;
          Buffer.add_char b ch
        | _ -> Buffer.add_char b ch)
    s;
  Buffer.contents b

(* Every JSON snapshot rewrite also appends its minified form to
   [bench_out/history/<name>.jsonl], so the perf trajectory across PRs
   survives the snapshot being overwritten in place. *)
let append_history name json =
  ensure_out_dir ();
  let dir = Filename.concat out_dir "history" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".jsonl") in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (minify_json json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  appended %s\n" path

let section title =
  Printf.printf "\n==== %s ====\n\n%!" title

(* ------------------------------------------------------------------ *)
(* Tables I-III: METIS-like vs GP on the three experiment instances.  *)
(* ------------------------------------------------------------------ *)

let run_experiment (e : PG.experiment) =
  let g = e.PG.graph and c = e.PG.constraints in
  let ms = Metis_like.partition g ~k:c.Types.k in
  let metis_report =
    Metrics.report ~runtime_s:ms.Metis_like.runtime_s g c ms.Metis_like.part
  in
  let gp = Gp.partition g c in
  (metis_report, gp)

let pp_paper_row name (r : PG.paper_row) =
  Printf.printf "  paper %-9s cut=%-3d time=%.2fs max_res=%-3d max_bw=%d\n"
    name r.PG.cut r.PG.time_s r.PG.max_resource r.PG.max_bandwidth

let tables () =
  section "Tables I-III (paper Section V)";
  List.iter
    (fun (e : PG.experiment) ->
      let metis_report, gp = run_experiment e in
      let title =
        Printf.sprintf "%s: %d nodes, %d edges, K = %d" e.PG.name
          (Wgraph.n_nodes e.PG.graph)
          (Wgraph.n_edges e.PG.graph)
          e.PG.constraints.Types.k
      in
      print_string
        (Report.table ~title ~constraints:e.PG.constraints
           [ ("METIS-like", metis_report); ("GP", gp.Gp.report) ]);
      Printf.printf "  (GP: feasible=%b, V-cycles=%d, levels=%d)\n"
        gp.Gp.feasible gp.Gp.cycles_used gp.Gp.levels;
      print_string "  Published rows for reference:\n";
      pp_paper_row "METIS" e.PG.paper_metis;
      pp_paper_row "GP" e.PG.paper_gp;
      print_newline ())
    PG.all

(* ------------------------------------------------------------------ *)
(* Figures 1-13.                                                       *)
(* ------------------------------------------------------------------ *)

let figures () =
  section "Figures 1-13 (DOT files + hierarchy trace)";
  ensure_out_dir ();
  let write name contents =
    let path = Filename.concat out_dir name in
    Graph_io.write_file path contents;
    Printf.printf "  wrote %s\n" path
  in
  (* Figure 1: the multilevel scheme, as a real hierarchy trace. *)
  let rng = Random.State.make [| 1 |] in
  let big =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(5, 50) ~ew_range:(1, 10)
      rng ~layers:40 ~width:25
  in
  let h = Coarsen.build ~target:100 rng big in
  write "fig01_hierarchy.txt" (Format.asprintf "%a" Coarsen.pp h);
  (* Figures 2-13: per experiment, the four graph renderings. *)
  List.iteri
    (fun idx (e : PG.experiment) ->
      let base = 2 + (4 * idx) in
      let g = e.PG.graph in
      let metis_report, gp = run_experiment e in
      ignore metis_report;
      let ms = Metis_like.partition g ~k:e.PG.constraints.Types.k in
      write
        (Printf.sprintf "fig%02d.dot" base)
        (Graph_io.to_dot ~weighted:false
           ~label:(e.PG.name ^ " unweighted") g);
      write
        (Printf.sprintf "fig%02d.dot" (base + 1))
        (Graph_io.to_dot ~label:(e.PG.name ^ " weighted") g);
      write
        (Printf.sprintf "fig%02d.dot" (base + 2))
        (Graph_io.to_dot ~partition:gp.Gp.part
           ~label:(e.PG.name ^ " partitioned with GP") g);
      write
        (Printf.sprintf "fig%02d.dot" (base + 3))
        (Graph_io.to_dot ~partition:ms.Metis_like.part
           ~label:(e.PG.name ^ " partitioned with METIS-like") g))
    PG.all

(* ------------------------------------------------------------------ *)
(* Extension: the same comparison on PPN-derived kernel instances.     *)
(* ------------------------------------------------------------------ *)

let kernels () =
  section "PPN kernel suite (GP vs METIS-like, K = 4)";
  List.iter
    (fun (i : Ppnpart_workloads.Ppn_suite.instance) ->
      let g = i.Ppnpart_workloads.Ppn_suite.graph in
      let c = i.Ppnpart_workloads.Ppn_suite.constraints in
      let ms = Metis_like.partition g ~k:c.Types.k in
      let metis_report =
        Metrics.report ~runtime_s:ms.Metis_like.runtime_s g c
          ms.Metis_like.part
      in
      let gp = Gp.partition g c in
      let title =
        Printf.sprintf "%s: %d processes, %d channels"
          i.Ppnpart_workloads.Ppn_suite.name (Wgraph.n_nodes g)
          (Wgraph.n_edges g)
      in
      print_string
        (Report.table ~title ~constraints:c
           [ ("METIS-like", metis_report); ("GP", gp.Gp.report) ]);
      print_newline ())
    (Ppnpart_workloads.Ppn_suite.instances ~k:4)

(* ------------------------------------------------------------------ *)
(* Full comparison matrix over every instance family, with CSV twin.   *)
(* ------------------------------------------------------------------ *)

let matrix () =
  section "Comparison matrix (all algorithms x all instance families)";
  ensure_out_dir ();
  let module E = Ppnpart_workloads.Evaluation in
  let instances =
    List.map
      (fun (e : PG.experiment) ->
        { E.label = e.PG.name; graph = e.PG.graph;
          constraints = e.PG.constraints })
      PG.all
    @ List.map
        (fun (i : Ppnpart_workloads.Ppn_suite.instance) ->
          {
            E.label = i.Ppnpart_workloads.Ppn_suite.name;
            graph = i.Ppnpart_workloads.Ppn_suite.graph;
            constraints = i.Ppnpart_workloads.Ppn_suite.constraints;
          })
        (Ppnpart_workloads.Ppn_suite.instances ~k:4)
    @ List.map
        (fun n ->
          let r = Random.State.make [| n; 4; 13 |] in
          let graph, constraints =
            Ppnpart_workloads.Rand_graph.random_partitionable r ~n ~k:4
          in
          { E.label = Printf.sprintf "planted-%d" n; graph; constraints })
        [ 60; 200 ]
  in
  let rows = E.run_matrix [ E.gp; E.metis_like; E.spectral ] instances in
  Format.printf "%a@." E.pp_rows rows;
  Format.printf "%a@." E.pp_summaries (E.summarize rows);
  let csv_path = Filename.concat out_dir "matrix.csv" in
  Graph_io.write_file csv_path (E.to_csv rows);
  Printf.printf "  wrote %s\n" csv_path

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let gp_with config g c = Gp.partition ~config g c

let ablation_matching () =
  section "Ablation: matching strategy (best-of-three vs single)";
  (* The paper's 12-node instances never coarsen (they are below the
     100-node coarsening target), so this ablation runs on larger planted
     instances where the hierarchy actually engages. *)
  let variants =
    ("best-of-3", Matching.all_strategies)
    :: List.map
         (fun s -> (Matching.strategy_name s, [ s ]))
         Matching.all_strategies
  in
  Printf.printf "  %-12s %-14s %-6s %-10s %-8s\n" "instance" "strategies"
    "cut" "feasible" "cycles";
  List.iter
    (fun (label, n) ->
      let r0 = Random.State.make [| n; 4; 13 |] in
      let g, c =
        Ppnpart_workloads.Rand_graph.random_partitionable r0 ~n ~k:4
      in
      List.iter
        (fun (name, strategies) ->
          let config = { Config.default with Config.strategies } in
          let r = gp_with config g c in
          Printf.printf "  %-12s %-14s %-6d %-10b %-8d\n" label name
            r.Gp.report.Metrics.total_cut r.Gp.feasible r.Gp.cycles_used)
        variants)
    [ ("planted-150", 150); ("planted-400", 400); ("planted-1000", 1000) ]

let ablation_seeds () =
  section "Ablation: greedy initial-partitioning restarts (paper: 10)";
  Printf.printf "  %-12s %-7s %-6s %-10s %-8s\n" "experiment" "seeds" "cut"
    "feasible" "cycles";
  List.iter
    (fun (e : PG.experiment) ->
      List.iter
        (fun n_initial_seeds ->
          let config = { Config.default with Config.n_initial_seeds } in
          let r = gp_with config e.PG.graph e.PG.constraints in
          Printf.printf "  %-12s %-7d %-6d %-10b %-8d\n" e.PG.name
            n_initial_seeds r.Gp.report.Metrics.total_cut r.Gp.feasible
            r.Gp.cycles_used)
        [ 1; 5; 10; 20 ])
    PG.all

let ablation_cycles () =
  section "Ablation: V-cycle budget under tightening bandwidth";
  (* Tighten exp1's bandwidth bound and watch feasibility return as the
     cycle budget grows — the "give the tool more time" knob of Section
     IV.C. Rates are over 10 GP seeds. *)
  let e = PG.experiment1 in
  Printf.printf "  %-8s %-18s %-12s %-16s\n" "bmax" "exact-feasible?"
    "max_cycles" "GP feasible (of 10)";
  List.iter
    (fun bmax ->
      let c =
        Types.constraints ~k:4 ~bmax ~rmax:e.PG.constraints.Types.rmax
      in
      let exact = Ppnpart_baselines.Exact.is_feasible e.PG.graph c in
      List.iter
        (fun max_cycles ->
          let feasible = ref 0 in
          for seed = 0 to 9 do
            let config = { Config.default with Config.max_cycles; seed } in
            if (gp_with config e.PG.graph c).Gp.feasible then incr feasible
          done;
          Printf.printf "  %-8d %-18b %-12d %d\n" bmax exact max_cycles
            !feasible)
        [ 0; 2; 5; 20 ])
    [ 16; 15; 14 ]

let sweep () =
  section
    "Statistical sweep: 40 random 12-node instances per tightness level";
  (* The paper demonstrates its claim on three hand-picked instances; this
     sweep repeats it with statistical power. Bounds are set per instance
     by scaling a spectral probe partition's achieved bandwidth/resources:
     factor 1.5 = loose, 1.15 = medium, 1.0 = the probe itself (tight).
     The exact branch-and-bound marks how many instances are feasible at
     all. *)
  let n_instances = 40 in
  Printf.printf "  %-9s %-16s %-14s %-14s %-12s\n" "bounds" "exact-feasible"
    "GP feasible" "ML feasible" "GP cut/ML cut";
  List.iter
    (fun (label, factor_num, factor_den) ->
      let exact_ok = ref 0 and gp_ok = ref 0 and ml_ok = ref 0 in
      let cut_ratio_sum = ref 0. and ratio_count = ref 0 in
      for seed = 0 to n_instances - 1 do
        let rng = Random.State.make [| seed; 0x5357 |] in
        let g =
          Ppnpart_workloads.Rand_graph.gnm ~connected:true
            ~vw_range:(30, 70) ~ew_range:(1, 6) rng ~n:12 ~m:33
        in
        let probe = Ppnpart_baselines.Spectral.kway rng g ~k:4 in
        let scale v = (v * factor_num / factor_den) + 1 in
        let c =
          Types.constraints ~k:4
            ~bmax:(scale (Metrics.max_local_bandwidth g ~k:4 probe))
            ~rmax:(scale (Metrics.max_resource g ~k:4 probe))
        in
        if Ppnpart_baselines.Exact.is_feasible g c then incr exact_ok;
        let gp = Gp.partition g c in
        if gp.Gp.feasible then incr gp_ok;
        let ms = Metis_like.partition g ~k:4 in
        if Metrics.feasible g c ms.Metis_like.part then incr ml_ok;
        if gp.Gp.feasible && ms.Metis_like.cut > 0 then begin
          cut_ratio_sum :=
            !cut_ratio_sum
            +. (float_of_int gp.Gp.report.Metrics.total_cut
               /. float_of_int ms.Metis_like.cut);
          incr ratio_count
        end
      done;
      Printf.printf "  %-9s %-16d %-14d %-14d %.3f\n" label !exact_ok !gp_ok
        !ml_ok
        (if !ratio_count = 0 then nan
         else !cut_ratio_sum /. float_of_int !ratio_count))
    [ ("x1.5", 3, 2); ("x1.15", 23, 20); ("x1.0", 1, 1) ]

(* ------------------------------------------------------------------ *)
(* Scaling: runtime vs graph size.                                     *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Scaling: runtime vs process-network size (K = 4)";
  let rng = Random.State.make [| 11 |] in
  Printf.printf "  %-8s %-8s %-8s %-12s %-12s %-10s\n" "graph" "nodes"
    "edges" "gp_time(s)" "ml_time(s)" "gp_feasible";
  List.iter
    (fun (name, g) ->
      let total = Wgraph.total_node_weight g in
      let c =
        Types.constraints ~k:4
          ~rmax:((total / 4 * 4 / 3) + 1)
          ~bmax:((Wgraph.total_edge_weight g / 8) + 1)
      in
      let gp = Gp.partition g c in
      let ms = Metis_like.partition g ~k:4 in
      Printf.printf "  %-8s %-8d %-8d %-12.3f %-12.3f %-10b\n" name
        (Wgraph.n_nodes g) (Wgraph.n_edges g) gp.Gp.runtime_s
        ms.Metis_like.runtime_s gp.Gp.feasible)
    (Ppnpart_workloads.Ppn_suite.scaling_graphs rng)

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark record: BENCH_partition.json.            *)
(* ------------------------------------------------------------------ *)

(* Per-instance results plus the two headline micro-benchmarks (bucket
   FM vs the seed's quadratic move selection, and speculative V-cycles
   at pool width 1 vs 4), written as JSON next to the human tables so
   future PRs can track the perf trajectory. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Minimum wall time over [reps] runs, compacting before every rep so a
   heap the earlier reps grew doesn't tax the later ones — without this
   the min measures heap history instead of the kernel. *)
let compacted_min ~reps f =
  let best = ref infinity and last = ref None in
  for _ = 1 to reps do
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t = Unix.gettimeofday () -. t0 in
    last := Some r;
    if t < !best then best := t
  done;
  (Option.get !last, !best)

(* Words allocated on this domain by [f] (minor + major, boxed or not). *)
let alloc_words f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  let after = Gc.allocated_bytes () in
  (r, (after -. before) /. float_of_int (Sys.word_size / 8))

let fm_bench ~n ~m ~k =
  let rng = Random.State.make [| n; k; 0x464d |] in
  let g =
    Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 20) ~ew_range:(1, 9) rng
      ~n ~m
  in
  let c =
    Types.constraints ~k
      ~rmax:((Wgraph.total_node_weight g / k * 4 / 3) + 1)
      ~bmax:((Wgraph.total_edge_weight g / (2 * k)) + 1)
  in
  let part0 = Ppnpart_partition.Initial.random_kway rng g ~k in
  (* Bucket-queue pass on a fresh state. *)
  let st = Part_state.init g c (Array.copy part0) in
  let _, bucket_pass_s = time (fun () -> Refine_constrained.fm_pass st) in
  (* Quadratic reference: the full pass would take minutes at this size,
     so run [ref_moves] selections (each O(n k^2), independent of the
     move index) and extrapolate to the n-move pass. *)
  let ref_moves = 30 in
  let st' = Part_state.init g c (Array.copy part0) in
  let locked = Array.make n false in
  let conn = Array.make k 0 in
  let (), ref_s =
    time (fun () ->
        for _ = 1 to ref_moves do
          (* The seed's O(n k) move selection, the heart of its
             O(n^2 k) fm_pass: the exact global scan. *)
          match
            Part_state.best_global_move ~skip:(fun u -> locked.(u)) st' conn
          with
          | None -> ()
          | Some (u, t) ->
            Part_state.connectivity st' conn u;
            Part_state.apply_move st' u t conn;
            locked.(u) <- true
        done)
  in
  let quadratic_est_s = ref_s *. float_of_int n /. float_of_int ref_moves in
  (* End-to-end refine (greedy sweeps + FM at 5k nodes, which the seed's
     512-node gate used to forbid). *)
  let rng' = Random.State.make [| 7 |] in
  let (_, gd), refine_s =
    time (fun () -> Refine_constrained.refine rng' g c (Array.copy part0))
  in
  ( g, c,
    Printf.sprintf
      {|{ "n": %d, "m": %d, "k": %d,
      "fm_pass_bucket_s": %.6f, "fm_pass_quadratic_est_s": %.6f,
      "fm_pass_speedup": %.1f,
      "refine_s": %.6f, "refine_violation": %d, "refine_cut": %d }|}
      n (Wgraph.n_edges g) k bucket_pass_s quadratic_est_s
      (quadratic_est_s /. bucket_pass_s)
      refine_s gd.Metrics.violation gd.Metrics.cut_value )

(* Boundary-driven constrained refinement vs the legacy full-scan path
   ([Refine_oracle], the cache-less refiner kept in test/oracle/).
   The two consume identical rng draws and promise a bit-identical
   partition, so equality is asserted on *every* benchmark run (not only
   in the fuzz harness) and the timing difference is pure
   implementation: active-set sweeps and cached connectivity rows vs
   full-node scans with per-node neighbour sweeps. The boundary side is
   measured in its steady state against a warmed workspace, which is how
   the GP pipeline runs it across un-coarsening levels; one extra
   capture-instrumented rep records how small the active set stays. *)
let refine_bench ?(reps = 3) ~n ~k () =
  let rng = Random.State.make [| n; k; 0x5242 |] in
  let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
  (* Start from the planted clustering with 2% of the nodes kicked to a
     random other part: a mostly-converged partition that is locally
     dirty, which is exactly what [Part_state.init_projected] hands the
     refiner at every un-coarsening level. On such instances the vast
     majority of nodes are interior — the regime the active set exists
     for. (A uniformly random start is the opposite regime: nearly every
     node is on the boundary and both paths must touch all of them; the
     [fm_5k] row keeps covering that worst case.) *)
  let part0 = Array.init n (fun u -> u * k / n) in
  for _ = 1 to n / 100 do
    let u = Random.State.int rng n in
    part0.(u) <- (part0.(u) + 1 + Random.State.int rng (k - 1)) mod k
  done;
  let mk_rng () = Random.State.make [| 7 |] in
  let ws = Workspace.create () in
  let run_boundary () =
    Refine_constrained.refine ~workspace:ws (mk_rng ()) g c
      (Array.copy part0)
  in
  let run_legacy () = Refine_oracle.refine (mk_rng ()) g c (Array.copy part0) in
  ignore (run_boundary () (* warm the workspace *));
  let (bp, bg), boundary_s = compacted_min ~reps run_boundary in
  let (lp, lg), legacy_s = compacted_min ~reps:(max 2 (reps - 1)) run_legacy in
  let same_goodness =
    bp = lp
    && bg.Metrics.violation = lg.Metrics.violation
    && bg.Metrics.cut_value = lg.Metrics.cut_value
  in
  if not same_goodness then
    failwith
      (Printf.sprintf
         "refine_bench n=%d: boundary diverged from legacy (violation %d \
          vs %d, cut %d vs %d, partitions %s)"
         n bg.Metrics.violation lg.Metrics.violation bg.Metrics.cut_value
         lg.Metrics.cut_value
         (if bp = lp then "equal" else "differ"));
  let _, snap = Ppnpart_obs.Obs.with_registry run_boundary in
  let active_size_total =
    Option.value ~default:0
      (List.assoc_opt "refine.active.size" snap.counters)
  in
  let frac_count, frac_mean, frac_max =
    match List.assoc_opt "refine.active.fraction" snap.histograms with
    | Some h when h.count > 0 ->
      (h.count, h.sum /. float_of_int h.count, h.max)
    | _ -> (0, 0., 0.)
  in
  let row =
    Printf.sprintf
      {|{ "n": %d, "m": %d, "k": %d,
      "legacy_refine_s": %.4f, "boundary_refine_s": %.4f, "speedup": %.1f,
      "same_goodness": %b, "violation": %d, "cut": %d,
      "active_sweeps": %d, "active_size_total": %d,
      "active_fraction_mean": %.4f, "active_fraction_max": %.4f }|}
      n (Wgraph.n_edges g) k legacy_s boundary_s (legacy_s /. boundary_s)
      same_goodness bg.Metrics.violation bg.Metrics.cut_value frac_count
      active_size_total frac_mean frac_max
  in
  (row, legacy_s, boundary_s)

(* The serial boundary refiner at scale, on the same mostly-converged
   shape as [refine_bench] (a perturbed planted clustering): one wall
   time plus the seeded, machine-independent cut and violation. *)
let serial_refine_bench ?(reps = 3) ~n ~k () =
  let rng = Random.State.make [| n; k; 0x5250 |] in
  let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
  let part0 = Array.init n (fun u -> u * k / n) in
  for _ = 1 to n / 100 do
    let u = Random.State.int rng n in
    part0.(u) <- (part0.(u) + 1 + Random.State.int rng (k - 1)) mod k
  done;
  let ws = Workspace.create () in
  let run () =
    Refine_constrained.refine ~workspace:ws (Random.State.make [| 7 |]) g c
      (Array.copy part0)
  in
  ignore (run () (* warm the workspace *));
  let (_, gd), serial_s = compacted_min ~reps run in
  Printf.sprintf
    {|{ "n": %d, "m": %d, "k": %d, "serial_refine_s": %.4f,
      "violation": %d, "cut": %d }|}
    n (Wgraph.n_edges g) k serial_s gd.Metrics.violation gd.Metrics.cut_value

(* The consolidated deterministic run report must be byte-identical
   when only the execution width changes. Runs the full GP pipeline
   twice — pool width 1 vs 4 — and byte-compares the [~deterministic]
   reports. *)
let report_determinism_row ~n ~k () =
  let rng = Random.State.make [| n; k; 0x5253 |] in
  let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
  let run width = Pool.with_width width (fun () -> Gp.partition g c) in
  let r1 = run 1 and r4 = run 4 in
  let report r =
    Run_report.of_result ~deterministic:true ~algo:"gp" g c r
  in
  let identical = report r1 = report r4 in
  let row =
    Printf.sprintf
      {|{ "n": %d, "k": %d, "report_identical_across_jobs": %b }|} n k
      identical
  in
  (row, identical)

(* Hierarchy construction: the legacy Edge_list pipeline (boxed tuples,
   polymorphic sorts; [Coarsen_oracle] in test/oracle/) vs the direct CSR
   kernel against a reusable
   workspace. Both consume identical rng draws and must produce
   bit-identical hierarchies; the fast path is measured in its steady
   state (workspace warmed by a first build), which is how the GP
   pipeline runs it across V-cycles. *)
let coarsen_bench ~n ~m =
  let g =
    let rng = Random.State.make [| n; 0x434b |] in
    Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 20) ~ew_range:(1, 9) rng
      ~n ~m
  in
  let mk_rng () = Random.State.make [| 0x636f; n |] in
  let build_legacy () = Coarsen_oracle.build ~target:100 (mk_rng ()) g in
  let ws = Workspace.create () in
  let build_fast () = Coarsen.build ~workspace:ws ~target:100 (mk_rng ()) g in
  Gc.compact ();
  let h_legacy, legacy_words = alloc_words build_legacy in
  let _, legacy_s = compacted_min ~reps:3 build_legacy in
  Gc.compact ();
  ignore (build_fast () (* warm the workspace *));
  let h_fast, fast_words = alloc_words build_fast in
  let _, fast_s = compacted_min ~reps:3 build_fast in
  let graphs_identical (a : Wgraph.t) (b : Wgraph.t) =
    a.Wgraph.n = b.Wgraph.n
    && a.Wgraph.xadj = b.Wgraph.xadj
    && a.Wgraph.adjncy = b.Wgraph.adjncy
    && a.Wgraph.adjwgt = b.Wgraph.adjwgt
    && a.Wgraph.vwgt = b.Wgraph.vwgt
  in
  let identical =
    let legacy_graphs, _ = h_legacy in
    Coarsen.levels h_fast = Array.length legacy_graphs
    &&
    let ok = ref true in
    for l = 0 to Coarsen.levels h_fast - 1 do
      if
        not
          (graphs_identical (Coarsen.graph_at h_fast l) legacy_graphs.(l))
      then ok := false
    done;
    !ok
  in
  Printf.sprintf
    {|{ "n": %d, "m": %d, "levels": %d,
      "legacy_build_s": %.4f, "fast_build_s": %.4f, "speedup": %.1f,
      "legacy_alloc_words": %.0f, "fast_alloc_words": %.0f,
      "alloc_ratio": %.1f, "bit_identical": %b }|}
    n (Wgraph.n_edges g) (Coarsen.levels h_fast) legacy_s fast_s
    (legacy_s /. fast_s) legacy_words fast_words
    (legacy_words /. fast_words)
    identical

let vcycle_instance ~layers ~width =
  (* Infeasible by construction (bmax = 0 on a connected graph), so every
     run burns the full 20-cycle budget — the speculative-parallelism
     stress case. *)
  let rng = Random.State.make [| 42 |] in
  let g =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(1, 20) ~ew_range:(1, 9)
      rng ~layers ~width
  in
  let c =
    Types.constraints ~k:4 ~bmax:0
      ~rmax:(Wgraph.total_node_weight g / 4 * 2)
  in
  (g, c)

(* Interleave the width-1 and width-4 reps (1,4,1,4,...) so machine
   noise and heap drift hit both sides alike, and keep the minimum of
   each: measuring all width-1 runs first skewed the ratio by whole
   percents either way on a loaded host. *)
let vcycle_pair ~reps ~max_cycles g c =
  let run width =
    let config = { Config.default with Config.max_cycles } in
    Pool.with_width width (fun () -> Gp.partition ~config g c)
  in
  let r1 = ref (run 1) and r4 = ref (run 4) (* warm-up *) in
  let t1 = ref infinity and t4 = ref infinity in
  for _ = 1 to reps do
    let a = Unix.gettimeofday () in
    r1 := run 1;
    let b = Unix.gettimeofday () in
    r4 := run 4;
    let d = Unix.gettimeofday () in
    t1 := min !t1 (b -. a);
    t4 := min !t4 (d -. b)
  done;
  (!r1, !t1, !r4, !t4)

let vcycle_bench () =
  (* Two instances straddling [Gp.parallel_cycle_threshold]. Below it
     (600 nodes) speculative waves used to *cost* 3x (a recorded
     jobs4_speedup of 0.34): domain spawns plus discarded speculation
     outweighed the tiny cycles. That size is now gated to the
     sequential schedule. Above the gate (4800 nodes) the pool width is
     capped by the hardware ([Pool.with_width 4] runs on
     [min 4 (Domain.recommended_domain_count ())] domains), so the
     "jobs4" side measures the host's full width: on a single-core host
     both sides execute the identical sequential schedule and the ratio
     is 1 by construction. The speedup is printed with one decimal
     because run-to-run noise (a few percent) makes a second decimal
     false precision either way. *)
  let g_small, c_small = vcycle_instance ~layers:40 ~width:15 in
  let r1s, t1s, r4s, t4s = vcycle_pair ~reps:4 ~max_cycles:20 g_small c_small in
  let g_large, c_large = vcycle_instance ~layers:80 ~width:60 in
  let r1l, t1l, r4l, t4l = vcycle_pair ~reps:3 ~max_cycles:20 g_large c_large in
  Printf.sprintf
    {|{ "n": %d, "m": %d, "k": 4, "max_cycles": 20,
      "cycles_used": %d, "jobs1_s": %.3f, "jobs4_s": %.3f,
      "jobs4_speedup": %.1f, "deterministic_across_jobs": %b,
      "gated_small": { "n": %d, "m": %d, "cycles_used": %d,
        "jobs1_s": %.3f, "jobs4_s": %.3f, "jobs4_speedup": %.1f,
        "deterministic_across_jobs": %b } }|}
    (Wgraph.n_nodes g_large) (Wgraph.n_edges g_large) r1l.Gp.cycles_used t1l
    t4l (t1l /. t4l)
    (r1l.Gp.part = r4l.Gp.part)
    (Wgraph.n_nodes g_small) (Wgraph.n_edges g_small) r1s.Gp.cycles_used t1s
    t4s (t1s /. t4s)
    (r1s.Gp.part = r4s.Gp.part)

(* Wall seconds spent under spans of a given name, from the span's
   [<name>.us] histogram in a registry snapshot. *)
let phase_seconds (snap : Ppnpart_obs.Metrics_registry.snapshot) name =
  match List.assoc_opt (name ^ ".us") snap.histograms with
  | Some h -> h.sum /. 1e6
  | None -> 0.

(* Tracing must be pay-for-use: run the V-cycle stress instance with the
   observability sink absent and installed, and record the overhead and
   that the partition itself is unchanged. Single runs on this workload
   vary by ~10% with machine noise — far above the honest delta (the
   disabled path is one atomic load per site) — and the noise comes in
   stretches lasting seconds, so a ratio of per-variant minima depends
   on which variant happened to hit a quiet stretch. The three samples
   of one rep therefore run back to back, share whatever stretch they
   land in, and give one trace/off and one metrics/off ratio; the gated
   rows are the medians of those per-rep ratios. Every sample starts
   from a compacted heap (compaction untimed), and the three variants
   rotate their order from rep to rep, so no variant keeps paying the
   major-GC work for the garbage the one before it left. *)
let obs_overhead ?(reps = 9) () =
  let g, c = vcycle_instance ~layers:40 ~width:15 in
  let config = { Config.default with Config.max_cycles = 10 } in
  Gc.compact ();
  let run_off () = Gp.partition ~config g c in
  let run_on () =
    Ppnpart_obs.Obs.with_capture (fun () -> Gp.partition ~config g c)
  in
  (* Third variant: the metrics registry (counters, histograms, GC
     deltas around every phase) installed, trace capture absent — the
     --metrics-out / --report-json configuration. *)
  let run_met () =
    fst (Ppnpart_obs.Obs.with_registry (fun () -> Gp.partition ~config g c))
  in
  let r_off = ref (run_off ())
  and r_on = ref (run_on ())
  and r_met = ref (run_met ()) (* warm-up *) in
  let offs = Array.make reps 0.
  and ons = Array.make reps 0.
  and mets = Array.make reps 0. in
  let sample times i run =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    run ();
    times.(i) <- Unix.gettimeofday () -. t0
  in
  for i = 0 to reps - 1 do
    for j = 0 to 2 do
      match (i + j) mod 3 with
      | 0 -> sample offs i (fun () -> r_off := run_off ())
      | 1 -> sample ons i (fun () -> r_on := run_on ())
      | _ -> sample mets i (fun () -> r_met := run_met ())
    done
  done;
  let r_off = !r_off and r_on, _cap = !r_on and r_met = !r_met in
  (* [a] is a fresh array; sorted in place. *)
  let median a =
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  let trace_ratio = median (Array.mapi (fun i t -> t /. offs.(i)) ons)
  and metrics_ratio = median (Array.mapi (fun i t -> t /. offs.(i)) mets) in
  (* The true overhead is nonnegative (enabled does strictly more work),
     so a ratio below 1 only means it sits below the noise floor and the
     percentage is clamped to 0 rather than recorded as a nonsense
     speedup. The seconds rows are each variant's minimum, for
     reference. *)
  let pct_over ratio = Float.max 0. ((ratio -. 1.) *. 100.) in
  (* The gated rows: medians of same-rep ratios, unclamped, so the bound
     is absolute rather than relative to a noisy baseline. *)
  Printf.sprintf
    {|{ "disabled_s": %.4f, "enabled_s": %.4f, "overhead_pct": %.2f,
      "metrics_enabled_s": %.4f, "metrics_overhead_pct": %.2f,
      "trace_ratio": %.4f, "metrics_ratio": %.4f,
      "same_partition": %b }|}
    (Array.fold_left min infinity offs)
    (Array.fold_left min infinity ons)
    (pct_over trace_ratio)
    (Array.fold_left min infinity mets)
    (pct_over metrics_ratio) trace_ratio metrics_ratio
    (r_off.Gp.part = r_on.Gp.part && r_off.Gp.part = r_met.Gp.part)

(* ------------------------------------------------------------------ *)
(* Streaming partitioner: the O(edges) path vs the multilevel V-cycle. *)
(* ------------------------------------------------------------------ *)

(* PPN-shaped instance at [n_target] nodes for the mode comparison:
   layered pipelines are the shape the multilevel path is tuned for (and
   the shape PPN derivation actually emits), so the stream/hybrid
   comparison is against the V-cycle's best case, not a strawman. *)
let mode_instance ~n_target =
  let width = 100 in
  let layers = max 2 (n_target / width) in
  let rng = Random.State.make [| 0x4c; n_target |] in
  let g =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(1, 4) ~ew_range:(1, 9)
      rng ~layers ~width
  in
  let k = 8 in
  let c =
    Types.constraints ~k
      ~rmax:((Wgraph.total_node_weight g / k * 4 / 3) + 1)
      ~bmax:((Wgraph.total_edge_weight g / (2 * k)) + 1)
  in
  (g, c)

let run_mode mode g c =
  Gp.partition ~config:{ Config.default with Config.mode } g c

(* Stream and hybrid against the full V-cycle on the same instance.
   Multilevel is timed once — it is the 10x+ slower side and the smoke
   gate leaves that much margin — while stream and hybrid take the min
   over [reps] compacted runs. A width-4 stream run is compared
   bit-for-bit against width 1: the streaming path never touches the
   domain pool, so any divergence is a determinism regression. *)
let mode_bench ~n_target ~reps =
  let g, c = mode_instance ~n_target in
  let n = Wgraph.n_nodes g in
  let ml, ml_s = time (fun () -> run_mode Config.Multilevel g c) in
  let st, stream_s =
    compacted_min ~reps (fun () -> run_mode Config.Stream g c)
  in
  let st4 = Pool.with_width 4 (fun () -> run_mode Config.Stream g c) in
  let hy, hybrid_s =
    compacted_min ~reps (fun () -> run_mode Config.Hybrid g c)
  in
  let cut (r : Gp.result) = r.Gp.goodness.Metrics.cut_value
  and viol (r : Gp.result) = r.Gp.goodness.Metrics.violation in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let stream_row =
    Printf.sprintf
      {|{ "n": %d, "m": %d, "k": %d,
      "stream_s": %.4f, "multilevel_s": %.4f, "speedup": %.1f,
      "nodes_per_s": %.0f, "deterministic_across_jobs": %b,
      "stream_cut": %d, "multilevel_cut": %d, "cut_ratio": %.2f,
      "stream_violation": %d, "multilevel_violation": %d }|}
      n (Wgraph.n_edges g) c.Types.k stream_s ml_s (ml_s /. stream_s)
      (float_of_int n /. stream_s)
      (st.Gp.part = st4.Gp.part)
      (cut st) (cut ml)
      (ratio (cut st) (cut ml))
      (viol st) (viol ml)
  in
  let hybrid_row =
    Printf.sprintf
      {|{ "n": %d, "m": %d, "k": %d,
      "hybrid_s": %.4f, "multilevel_s": %.4f, "speedup": %.1f,
      "hybrid_cut": %d, "multilevel_cut": %d, "cut_ratio": %.2f,
      "hybrid_violation": %d, "multilevel_violation": %d }|}
      n (Wgraph.n_edges g) c.Types.k hybrid_s ml_s (ml_s /. hybrid_s)
      (cut hy) (cut ml)
      (ratio (cut hy) (cut ml))
      (viol hy) (viol ml)
  in
  (stream_row, hybrid_row, ml_s, hybrid_s, cut st, cut ml)

(* The headline scale row: an R-MAT instance past what the V-cycle can
   touch at all — a single multilevel descent at a *quarter* of this
   size did not finish in ten minutes, where the restreaming path
   finishes in about a second. The quality-vs-multilevel delta is
   therefore recorded on a same-family instance at [ref_scale], the
   largest R-MAT the V-cycle handles in seconds; on this heavy-tailed
   family the streamed cut is typically *below* the multilevel one. *)
let stream_1m_bench ?(scale = 20) ?(m = 4_200_000) ?(ref_scale = 14) ~reps ()
    =
  let constraints_for g k =
    Types.constraints ~k
      ~rmax:((Wgraph.total_node_weight g / k * 4 / 3) + 1)
      ~bmax:((Wgraph.total_edge_weight g / (2 * k)) + 1)
  in
  let rng = Random.State.make [| 0x5354; scale |] in
  let g, gen_s =
    time (fun () ->
        Ppnpart_workloads.Rand_graph.rmat ~vw_range:(1, 8) ~ew_range:(1, 9)
          rng ~scale ~m)
  in
  let n = Wgraph.n_nodes g in
  let k = 16 in
  let c = constraints_for g k in
  let ws = Workspace.create () in
  (* Two warm-ups: the label bank alternates per acquisition, so the
     steady state (no allocation at all) is reached after two runs. *)
  ignore (Stream.partition ~workspace:ws g c);
  ignore (Stream.partition ~workspace:ws g c);
  let (part, stats), stream_s =
    compacted_min ~reps (fun () -> Stream.partition ~workspace:ws g c)
  in
  let gd = Metrics.goodness g c part in
  (* End-to-end from METIS text, once (the instance is big enough that
     one run is past noise): parse, then stream. *)
  let text = Graph_io.to_metis g in
  let _, e2e_parse_s =
    time (fun () ->
        let g2 = Graph_io.of_metis text in
        Stream.partition ~workspace:ws g2 c)
  in
  let e2e_bytes = String.length text in
  let ref_rng = Random.State.make [| 0x5354; ref_scale |] in
  let ref_m = 4 * (1 lsl ref_scale) in
  let g_ref =
    Ppnpart_workloads.Rand_graph.rmat ~vw_range:(1, 8) ~ew_range:(1, 9)
      ref_rng ~scale:ref_scale ~m:ref_m
  in
  let c_ref = constraints_for g_ref k in
  let ml_ref, ml_ref_s =
    time (fun () ->
        Gp.partition ~config:{ Config.default with Config.max_cycles = 0 }
          g_ref c_ref)
  in
  let st_ref, _ = Stream.partition g_ref c_ref in
  let gd_ref = Metrics.goodness g_ref c_ref st_ref in
  let ml_ref_cut = ml_ref.Gp.goodness.Metrics.cut_value in
  Printf.sprintf
    {|{ "scale": %d, "n": %d, "m": %d, "k": %d,
      "generate_s": %.4f, "stream_s": %.4f, "nodes_per_s": %.0f,
      "passes": %d, "converged": %b,
      "workspace_words": %d, "state_words": %d,
      "violation": %d, "cut": %d,
      "e2e_bytes": %d, "e2e_parse_then_stream_s": %.4f,
      "multilevel_ref": { "scale": %d, "n": %d, "m": %d,
        "multilevel_s": %.4f, "multilevel_cut": %d, "stream_cut": %d,
        "cut_ratio": %.2f,
        "multilevel_violation": %d, "stream_violation": %d } }|}
    scale n (Wgraph.n_edges g) k gen_s stream_s
    (float_of_int n /. stream_s)
    stats.Stream.iterations stats.Stream.converged (Workspace.words ws)
    stats.Stream.state_words gd.Metrics.violation gd.Metrics.cut_value
    e2e_bytes e2e_parse_s
    ref_scale
    (Wgraph.n_nodes g_ref)
    (Wgraph.n_edges g_ref)
    ml_ref_s ml_ref_cut gd_ref.Metrics.cut_value
    (float_of_int gd_ref.Metrics.cut_value /. float_of_int (max 1 ml_ref_cut))
    ml_ref.Gp.goodness.Metrics.violation gd_ref.Metrics.violation

(* METIS text ingest: [Graph_io.of_metis] (the [Graph_io.Rows] reader)
   is how large streamed instances arrive, so its throughput is part of
   the streaming story. Serialize a mid-size R-MAT instance and time the
   parse (validation included — that *is* the ingest path); the
   roundtrip shape check turns a silent tokenizer regression into a loud
   one. *)
let ingest_bench ~scale ~reps =
  let m = 4 * (1 lsl scale) in
  let rng = Random.State.make [| 0x494f; scale |] in
  let g =
    Ppnpart_workloads.Rand_graph.rmat ~vw_range:(1, 8) ~ew_range:(1, 9) rng
      ~scale ~m
  in
  let text, to_s = time (fun () -> Graph_io.to_metis g) in
  let g2, of_s = compacted_min ~reps (fun () -> Graph_io.of_metis text) in
  if
    Wgraph.n_nodes g2 <> Wgraph.n_nodes g
    || Wgraph.n_edges g2 <> Wgraph.n_edges g
  then failwith "ingest_bench: of_metis roundtrip changed the graph shape";
  let bytes = String.length text in
  Printf.sprintf
    {|{ "n": %d, "m": %d, "bytes": %d,
      "to_metis_s": %.4f, "of_metis_s": %.4f,
      "mb_per_s": %.1f, "edges_per_s": %.0f }|}
    (Wgraph.n_nodes g) (Wgraph.n_edges g) bytes to_s of_s
    (float_of_int bytes /. of_s /. 1e6)
    (float_of_int (Wgraph.n_edges g) /. of_s)

(* Incremental repartitioning vs from-scratch on a planted instance
   with a small edit (DESIGN.md §6.7): the daemon's steady-state
   request. The edit touches ~[edit_pct]% of the nodes (weight bumps,
   added/removed channels, one added and one removed process);
   [Gp.repartition] projects the previous labels, seeds the holes and
   runs only the boundary refiner, and must be (a) much faster than the
   full pipeline on the edited graph, (b) no less feasible, (c) never
   worse than the labelling it seeded from, and (d) bit-identical
   at pool width 1 and 4. All four are recorded as machine-checkable
   fields. *)
let repartition_bench ~n ~k ~edit_pct ~reps () =
  let rng = Random.State.make [| 0x7270; n; k |] in
  let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
  let base = Gp.partition g c in
  let prev = base.Gp.part in
  let budget = max 1 (n * edit_pct / 100) in
  let ops =
    (* Deterministic batch mimicking one DSE step: resource
       re-estimates drawn from the planted weight distribution (5..20),
       new channels only between nodes of the same planted cluster
       (clusters are the contiguous ranges u*k/n — a random
       cross-cluster channel would blow the tight planted bmax and turn
       every request into an infeasible instance, which is not the
       steady state this row measures), one dropped chord, one process
       added and one removed. *)
    let same_cluster u v = u * k / n = v * k / n in
    let ops = ref [ Graph_edit.Add_node { weight = 2; neighbors = [ (0, 1) ] } ] in
    let count = ref 1 in
    (if n > 8 then begin
       ops := Graph_edit.Remove_node (n - 1) :: !ops;
       incr count
     end);
    let i = ref 0 in
    while !count < budget && !i < 6 * budget do
      let u = Random.State.int rng (n - 1) in
      (match !i mod 3 with
      | 0 ->
        ops :=
          Graph_edit.Set_node_weight (u, 5 + Random.State.int rng 16) :: !ops;
        incr count
      | 1 ->
        let v = u + 2 in
        if v < n - 1 && same_cluster u v && not (Wgraph.mem_edge g u v)
        then begin
          ops := Graph_edit.Add_edge (u, v, 1 + Random.State.int rng 3) :: !ops;
          incr count
        end
      | _ ->
        if Wgraph.degree g u > 2 then begin
          let v = Wgraph.fold_neighbors g u (fun acc v _ -> max acc v) (-1) in
          if v <> n - 1 && same_cluster u v then begin
            ops := Graph_edit.Remove_edge (u, v) :: !ops;
            incr count
          end
        end);
      incr i
    done;
    (* Dedup: two ops naming the same node pair or node weight twice is
       legal only for some kinds; keep the first of each key. *)
    let seen = Hashtbl.create 64 in
    List.filter
      (fun op ->
        let key =
          match op with
          | Graph_edit.Set_node_weight (u, _) -> Some (`N u)
          | Graph_edit.Add_edge (u, v, _) | Graph_edit.Remove_edge (u, v)
          | Graph_edit.Set_edge_weight (u, v, _) ->
            Some (`E (min u v, max u v))
          | Graph_edit.Add_node _ | Graph_edit.Remove_node _ -> None
        in
        match key with
        | None -> true
        | Some k ->
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.replace seen k ();
            true
          end)
      (List.rev !ops)
  in
  (* The edit itself, the first layer of every incremental request. *)
  let (g', _, edit), apply_s =
    compacted_min ~reps (fun () -> Graph_edit.apply g ops)
  in
  let ws = Workspace.create () in
  let run_incremental () = Gp.repartition ~workspace:ws ~prev g c ops in
  ignore (run_incremental ());
  (* warm workspace *)
  let rp, incr_s = compacted_min ~reps run_incremental in
  let rp4 = Pool.with_width 4 run_incremental in
  let scratch, scratch_s = compacted_min ~reps (fun () -> Gp.partition g' c) in
  let gd = rp.Gp.rp_result.Gp.goodness in
  let never_worse =
    match (rp.Gp.rp_incremental, rp.Gp.rp_result.Gp.history) with
    | true, seed_gd :: _ -> Metrics.compare_goodness gd seed_gd <= 0
    | _ -> true
  in
  let feasible_agree =
    rp.Gp.rp_result.Gp.feasible || not scratch.Gp.feasible
  in
  let row =
    Printf.sprintf
      {|{ "n": %d, "m": %d, "k": %d, "ops": %d, "touched": %d,
      "scratch_s": %.4f, "incremental_s": %.4f, "apply_s": %.6f,
      "speedup": %.2f,
      "incremental": %b, "seeded": %d,
      "violation": %d, "cut": %d, "scratch_cut": %d,
      "feasible": %b, "feasible_agree": %b, "never_worse": %b,
      "deterministic_across_jobs": %b }|}
      n (Wgraph.n_edges g) k (List.length ops) edit.Graph_edit.touched
      scratch_s incr_s apply_s
      (scratch_s /. incr_s)
      rp.Gp.rp_incremental rp.Gp.rp_seeded gd.Metrics.violation
      gd.Metrics.cut_value scratch.Gp.goodness.Metrics.cut_value
      rp.Gp.rp_result.Gp.feasible feasible_agree never_worse
      (rp.Gp.rp_result.Gp.part = rp4.Gp.rp_result.Gp.part)
  in
  (row, scratch_s, incr_s, rp.Gp.rp_incremental)

(* Daemon throughput: an in-process [Daemon.serve] on a temp socket,
   [clients] connections each owning its own submitted graph (the
   service serializes per graph, so distinct graphs are what the worker
   domains parallelize over), each streaming [requests] one-op
   repartition requests and reading the response before sending the
   next. Sustained request rate plus p99 latency; the protocol,
   framing, scheduling and compute are all on the measured path. *)
let daemon_bench ~workers ~clients ~requests ~n ~k () =
  let module Daemon = Ppnpart_server.Daemon in
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppnpartd-bench-%d-%d.sock" (Unix.getpid ()) workers)
  in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let is_ready = ref false in
  let daemon =
    Thread.create
      (fun () ->
        Daemon.serve
          ~ready:(fun () ->
            Mutex.lock ready_m;
            is_ready := true;
            Condition.broadcast ready_c;
            Mutex.unlock ready_m)
          { Daemon.socket_path; workers; queue_limit = 64 })
      ()
  in
  Mutex.lock ready_m;
  while not !is_ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let metis =
    let rng = Random.State.make [| 0xDA; n |] in
    let g, _ = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
    String.concat "\\n" (String.split_on_char '\n' (Graph_io.to_metis g))
  in
  let latencies = Array.make (clients * requests) 0. in
  let request oc ic line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  let client_thread ci =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    let name = Printf.sprintf "g%d" ci in
    ignore
      (request oc ic
         (Printf.sprintf "{\"op\":\"submit\",\"graph\":%S,\"metis\":\"%s\"}"
            name metis));
    ignore
      (request oc ic
         (Printf.sprintf
            "{\"op\":\"partition\",\"graph\":%S,\"k\":%d,\"seed\":1}" name k));
    for r = 0 to requests - 1 do
      (* Alternate a node weight up and down: a minimal real edit, so
         every request exercises apply/seed/refine end to end. *)
      let line =
        Printf.sprintf
          "{\"op\":\"repartition\",\"graph\":%S,\"edits\":[{\"op\":\"set_node_weight\",\"node\":%d,\"w\":%d}]}"
          name (r mod n)
          (1 + (r mod 2))
      in
      let t0 = Unix.gettimeofday () in
      let resp = request oc ic line in
      latencies.((ci * requests) + r) <- Unix.gettimeofday () -. t0;
      if String.length resp < 11 || String.sub resp 0 11 <> "{\"ok\":true," then
        failwith ("daemon_bench: request failed: " ^ resp)
    done;
    Unix.close fd
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun ci -> Thread.create client_thread ci) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Clean shutdown through the protocol, so the socket file goes away. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let oc = Unix.out_channel_of_descr fd in
  ignore (request oc (Unix.in_channel_of_descr fd) "{\"op\":\"shutdown\"}");
  Unix.close fd;
  Thread.join daemon;
  Array.sort compare latencies;
  let p99 = latencies.(min (Array.length latencies - 1)
                         (Array.length latencies * 99 / 100)) in
  let total = clients * requests in
  (float_of_int total /. elapsed, p99 *. 1000., elapsed)

let daemon_row ~clients ~requests ~n ~k ~speedup () =
  let rps1, p99_1, _ = daemon_bench ~workers:1 ~clients ~requests ~n ~k () in
  let rps4, p99_4, _ = daemon_bench ~workers:4 ~clients ~requests ~n ~k () in
  Printf.sprintf
    {|{ "n": %d, "k": %d, "clients": %d, "requests_per_client": %d,
      "req_per_s_1": %.1f, "p99_ms_1": %.3f,
      "req_per_s_4": %.1f, "p99_ms_4": %.3f,
      "incremental_vs_scratch_speedup": %.2f }|}
    n k clients requests rps1 p99_1 rps4 p99_4 speedup

let bench_json () =
  section "Machine-readable benchmark record (BENCH_partition.json)";
  ensure_out_dir ();
  let instance_rows =
    List.map
      (fun (e : PG.experiment) ->
        let r, snap =
          Ppnpart_obs.Obs.with_registry (fun () ->
              Gp.partition e.PG.graph e.PG.constraints)
        in
        let p = phase_seconds snap in
        Printf.sprintf
          {|    { "name": %S, "n": %d, "m": %d, "k": %d, "cut": %d,
      "feasible": %b, "runtime_s": %.4f, "cycles": %d, "levels": %d,
      "jobs": %d,
      "phases": { "coarsen_s": %.6f, "initial_s": %.6f,
        "refine_s": %.6f, "vcycle_s": %.6f } }|}
          e.PG.name
          (Wgraph.n_nodes e.PG.graph)
          (Wgraph.n_edges e.PG.graph)
          e.PG.constraints.Types.k r.Gp.report.Metrics.total_cut
          r.Gp.feasible r.Gp.runtime_s r.Gp.cycles_used r.Gp.levels
          (Pool.width ()) (p "coarsen.level")
          (p "initial.greedy")
          (p "refine.constrained" +. p "refine.tabu"
          +. p "refine.state_init")
          (p "gp.cycle"))
      PG.all
  in
  (* The headline micro-benchmarks stay observability-free so their
     numbers remain comparable with earlier records. *)
  let _, _, fm_row = fm_bench ~n:5000 ~m:20000 ~k:8 in
  let refine_row, _, _ = refine_bench ~n:50_000 ~k:8 () in
  let refine_1m_row = serial_refine_bench ~n:1_000_000 ~k:16 ~reps:2 () in
  let coarsen_row = coarsen_bench ~n:50_000 ~m:200_000 in
  let vc_row = vcycle_bench () in
  let obs_row = obs_overhead () in
  let stream_row, hybrid_row, _, _, _, _ =
    mode_bench ~n_target:200_000 ~reps:3
  in
  let stream_1m_row = stream_1m_bench ~reps:3 () in
  let ingest_row = ingest_bench ~scale:17 ~reps:3 in
  let repartition_row, scratch_s, incr_s, _ =
    repartition_bench ~n:50_000 ~k:8 ~edit_pct:1 ~reps:3 ()
  in
  let daemon_row =
    daemon_row ~clients:4 ~requests:50 ~n:2_000 ~k:4
      ~speedup:(scratch_s /. incr_s) ()
  in
  let json =
    Printf.sprintf
      {|{
  "schema": "ppnpart-bench-partition/11",
  "generated_unix": %.0f,
  "instances": [
%s
  ],
  "fm_5k": %s,
  "refine_50k": %s,
  "refine_1m": %s,
  "coarsen_50k": %s,
  "vcycles_20": %s,
  "obs_overhead": %s,
  "stream_1m": %s,
  "stream_200k": %s,
  "hybrid_200k": %s,
  "ingest_131k": %s,
  "repartition_50k": %s,
  "daemon": %s
}
|}
      (Unix.time ())
      (String.concat ",\n" instance_rows)
      fm_row refine_row refine_1m_row coarsen_row vc_row obs_row
      stream_1m_row stream_row hybrid_row ingest_row repartition_row
      daemon_row
  in
  let path = Filename.concat out_dir "BENCH_partition.json" in
  Graph_io.write_file path json;
  print_string json;
  Printf.printf "  wrote %s\n" path;
  append_history "partition" json

(* ------------------------------------------------------------------ *)
(* Smoke: the micro-benchmarks at shrunk sizes, for CI.                 *)
(* ------------------------------------------------------------------ *)

(* Runs the same measurement code as the JSON record on instances small
   enough for a CI runner, prints the rows, and rewrites nothing — its
   only job is to catch a benchmark that stopped building, crashed, or
   lost a structural property (bit-identity, determinism). *)
let smoke () =
  section "Bench smoke (shrunk sizes, no JSON rewrite)";
  let _, _, fm_row = fm_bench ~n:600 ~m:2400 ~k:4 in
  Printf.printf "  fm_600: %s\n%!" fm_row;
  (* Boundary vs legacy at CI size: bit-identity is asserted inside
     refine_bench on every run, and the boundary path must additionally
     never be slower than the full-scan path it replaces (min over reps
     on each side, so a noise spike can't fake a regression). *)
  let refine_row, legacy_s, boundary_s = refine_bench ~n:4_000 ~k:8 () in
  Printf.printf "  refine_4k: %s\n%!" refine_row;
  if boundary_s > legacy_s then
    failwith
      (Printf.sprintf
         "smoke: boundary refine slower than legacy (%.4fs > %.4fs)"
         boundary_s legacy_s);
  (* Width-determinism of the consolidated report: the deterministic
     report must be byte-identical between pool widths 1 and 4. *)
  let report_row, report_identical = report_determinism_row ~n:2_000 ~k:8 () in
  Printf.printf "  report_2k: %s\n%!" report_row;
  if not report_identical then
    failwith
      "smoke: deterministic run report differs between widths 1 and 4";
  let coarsen_row = coarsen_bench ~n:4_000 ~m:16_000 in
  Printf.printf "  coarsen_4k: %s\n%!" coarsen_row;
  let obs_row = obs_overhead ~reps:2 () in
  Printf.printf "  obs_overhead: %s\n%!" obs_row;
  let g, c = vcycle_instance ~layers:20 ~width:10 in
  let r1, t1, r4, t4 = vcycle_pair ~reps:1 ~max_cycles:5 g c in
  Printf.printf
    "  vcycles_5: jobs1_s=%.3f jobs4_s=%.3f deterministic=%b cycles=%d\n%!"
    t1 t4
    (r1.Gp.part = r4.Gp.part)
    r1.Gp.cycles_used;
  (* The stream/hybrid gates at CI scale, same measurement code as the
     200k JSON rows. Hybrid replaces the full V-cycle wholesale on big
     graphs, so it must never be the slower side; streaming alone trades
     quality for an order of magnitude of speed, and the factor it is
     allowed to trade is fixed here. Both sides are deterministic, so
     the measured ratio is exact: ~13x at this shrunk shape (4x at the
     200k JSON scale — multilevel's relative advantage shrinks with
     size), where a broken streaming objective lands at random-placement
     quality, ~40x. The gate sits between the two. *)
  let stream_row, hybrid_row, ml_s, hybrid_s, stream_cut, ml_cut =
    mode_bench ~n_target:20_000 ~reps:2
  in
  Printf.printf "  stream_20k: %s\n%!" stream_row;
  Printf.printf "  hybrid_20k: %s\n%!" hybrid_row;
  if hybrid_s > ml_s then
    failwith
      (Printf.sprintf
         "smoke: hybrid slower than the multilevel V-cycle (%.4fs > %.4fs)"
         hybrid_s ml_s);
  if stream_cut > 20 * max 1 ml_cut then
    failwith
      (Printf.sprintf
         "smoke: streaming cut %d more than 20x the multilevel cut %d"
         stream_cut ml_cut);
  let ingest_row = ingest_bench ~scale:13 ~reps:2 in
  Printf.printf "  ingest_8k: %s\n%!" ingest_row;
  (* Incremental repartitioning at CI scale: same measurement code as
     the 50k JSON row. The whole point of the daemon's steady state is
     that a small-edit request is cheaper than a scratch run, so the
     incremental side must never be the slower one. *)
  let repart_row, scratch_s, incr_s, incremental =
    repartition_bench ~n:4_000 ~k:8 ~edit_pct:1 ~reps:2 ()
  in
  Printf.printf "  repartition_4k: %s\n%!" repart_row;
  if not incremental then
    failwith "smoke: 1%-edit repartition fell back to the full pipeline";
  if incr_s > scratch_s then
    failwith
      (Printf.sprintf
         "smoke: incremental repartition slower than scratch (%.4fs > %.4fs)"
         incr_s scratch_s)

(* The smoke rows, machine-readable: the shrunk-size counterpart of
   BENCH_partition.json, cheap enough to regenerate on a CI runner.
   Every row is produced by the same measurement code as the full
   record; the structural fields (cuts, violations, determinism and
   bit-identity booleans) are seeded-deterministic and therefore
   machine-independent, which is what `compare.exe` keys its tight
   thresholds on — the timing fields only get loose advisory bounds. *)
let bench_json_smoke () =
  section "Machine-readable smoke record (BENCH_smoke.json)";
  ensure_out_dir ();
  let _, _, fm_row = fm_bench ~n:600 ~m:2400 ~k:4 in
  let refine_row, _, _ = refine_bench ~n:4_000 ~k:8 () in
  let report_row, _ = report_determinism_row ~n:2_000 ~k:8 () in
  let coarsen_row = coarsen_bench ~n:4_000 ~m:16_000 in
  let obs_row = obs_overhead () in
  let g, c = vcycle_instance ~layers:20 ~width:10 in
  let r1, t1, r4, t4 = vcycle_pair ~reps:1 ~max_cycles:5 g c in
  let vc_row =
    Printf.sprintf
      {|{ "jobs1_s": %.4f, "jobs4_s": %.4f, "cycles_used": %d,
      "deterministic_across_jobs": %b }|}
      t1 t4 r1.Gp.cycles_used
      (r1.Gp.part = r4.Gp.part)
  in
  let stream_row, hybrid_row, _, _, _, _ =
    mode_bench ~n_target:20_000 ~reps:2
  in
  let ingest_row = ingest_bench ~scale:13 ~reps:2 in
  let repart_row, _, _, _ =
    repartition_bench ~n:4_000 ~k:8 ~edit_pct:1 ~reps:2 ()
  in
  let json =
    Printf.sprintf
      {|{
  "schema": "ppnpart-bench-smoke/6",
  "generated_unix": %.0f,
  "fm_600": %s,
  "refine_4k": %s,
  "report_2k": %s,
  "coarsen_4k": %s,
  "obs_overhead": %s,
  "vcycles_5": %s,
  "stream_20k": %s,
  "hybrid_20k": %s,
  "ingest_8k": %s,
  "repartition_4k": %s
}
|}
      (Unix.time ()) fm_row refine_row report_row coarsen_row obs_row vc_row
      stream_row hybrid_row ingest_row repart_row
  in
  let path = Filename.concat out_dir "BENCH_smoke.json" in
  Graph_io.write_file path json;
  print_string json;
  Printf.printf "  wrote %s\n" path;
  append_history "smoke" json

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table.                 *)
(* ------------------------------------------------------------------ *)

let timing () =
  section "Bechamel timing (one test per table; ns per partitioning run)";
  let open Bechamel in
  let open Toolkit in
  let quick_config = { Config.default with Config.max_cycles = 5 } in
  let test_of_experiment (e : PG.experiment) =
    Test.make_grouped ~name:e.PG.name
      [
        Test.make ~name:"gp"
          (Staged.stage (fun () ->
               ignore (Gp.partition ~config:quick_config e.PG.graph
                         e.PG.constraints)));
        Test.make ~name:"metis-like"
          (Staged.stage (fun () ->
               ignore
                 (Metis_like.partition e.PG.graph
                    ~k:e.PG.constraints.Types.k)));
      ]
  in
  let tests = Test.make_grouped ~name:"tables" (List.map test_of_experiment PG.all) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> e
          | Some _ | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-32s %12.0f ns/run\n" name ns)
    rows

(* ------------------------------------------------------------------ *)

let all () =
  tables ();
  figures ();
  kernels ();
  matrix ();
  sweep ();
  ablation_matching ();
  ablation_seeds ();
  ablation_cycles ();
  scaling ();
  bench_json ();
  timing ()

let () =
  let sections =
    [
      ("tables", tables);
      ("figures", figures);
      ("kernels", kernels);
      ("matrix", matrix);
      ("sweep", sweep);
      ("ablation-matching", ablation_matching);
      ("ablation-seeds", ablation_seeds);
      ("ablation-cycles", ablation_cycles);
      ("scaling", scaling);
      ("json", bench_json);
      ("json-smoke", bench_json_smoke);
      ("smoke", smoke);
      ("timing", timing);
      ("all", all);
    ]
  in
  (* Every row runs at pool width 1 unless it pins another: a row
     measures one fixed schedule whatever the host's core count. *)
  match Array.to_list Sys.argv with
  | [ _ ] -> Pool.with_width 1 all
  | [ _; name ] -> (
    match List.assoc_opt name sections with
    | Some f -> Pool.with_width 1 f
    | None ->
      Printf.eprintf "unknown section %S; available: %s\n" name
        (String.concat " " (List.map fst sections));
      exit 2)
  | _ ->
    Printf.eprintf "usage: main.exe [section]\n";
    exit 2
