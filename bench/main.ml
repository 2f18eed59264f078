(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) plus the ablation and scaling studies listed in
   DESIGN.md §4.

   Usage:  dune exec bench/main.exe [-- SECTION]
   where SECTION is one of: tables figures kernels matrix sweep
   ablation-matching ablation-seeds ablation-cycles scaling json
   json-smoke smoke timing all (default: all).

   [smoke] and [json-smoke] run one builder: the micro-benchmarks at
   shrunk sizes, as one JSON document. [smoke] prints the rows;
   [json-smoke] also rewrites bench_out/BENCH_smoke.json. [json] builds
   the full-size record bench_out/BENCH_partition.json. Both record
   sections append the document to bench_out/history/. Each of the
   three then checks its document against the blocking rows of its
   rule table ([Compare_core.smoke_rules] or [partition_rules]: every
   [Must_stay_true] and [At_most] row) and fails the run if one is
   false or missing. *)

open Ppnpart_graph
open Ppnpart_partition
module PG = Ppnpart_workloads.Paper_graphs
module Gp = Ppnpart_core.Gp
module Config = Ppnpart_core.Config
module Pool = Ppnpart_exec.Pool
module Report = Ppnpart_core.Report
module Json = Ppnpart_obs.Json
module C = Ppnpart_bench_compare.Compare_core
module Metis_like = Ppnpart_baselines.Metis_like
module Coarsen_oracle = Ppnpart_test_oracle.Coarsen_oracle
module Refine_oracle = Ppnpart_test_oracle.Refine_oracle

let out_dir = "bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* Every JSON snapshot rewrite also appends it, on one line, to
   [bench_out/history/<name>.jsonl], so the perf trajectory across PRs
   survives the snapshot being overwritten in place. *)
let append_history name doc =
  ensure_out_dir ();
  let dir = Filename.concat out_dir "history" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".jsonl") in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.to_string doc);
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

(* Per-instance results plus the headline micro-benchmarks, written as
   JSON next to the human tables so future PRs can track the perf
   trajectory. Every row is a [Json.t] built from constructors. *)

let int = Json.int

(* A ratio over a timer that read 0 is not a number JSON can hold. *)
let num f = if Float.is_finite f then Json.Num f else Json.Null

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
  Json.Obj
    [ ("n", int n); ("m", int (Wgraph.n_edges g)); ("k", int k);
      ("fm_pass_bucket_s", num bucket_pass_s);
      ("fm_pass_quadratic_est_s", num quadratic_est_s);
      ("fm_pass_speedup", num (quadratic_est_s /. bucket_pass_s));
      ("refine_s", num refine_s);
      ("refine_violation", int gd.Metrics.violation);
      ("refine_cut", int gd.Metrics.cut_value) ]

(* Boundary-driven constrained refinement vs the legacy full-scan path
   ([Refine_oracle], the cache-less refiner kept in test/oracle/).
   The two consume identical rng draws and promise a bit-identical
   partition, so equality is checked on *every* benchmark run (not only
   in the fuzz harness): a divergence writes [same_goodness: false] and
   names the first quantity that differs in [diverged], and the gate
   fails the run once the record is out. The timing difference is pure
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
  let diverged =
    if bg.Metrics.violation <> lg.Metrics.violation then Some "violation"
    else if bg.Metrics.cut_value <> lg.Metrics.cut_value then Some "cut"
    else if bp <> lp then Some "labels"
    else None
  in
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
  Json.Obj
    ([ ("n", int n); ("m", int (Wgraph.n_edges g)); ("k", int k);
       ("legacy_refine_s", num legacy_s);
       ("boundary_refine_s", num boundary_s);
       ("speedup", num (legacy_s /. boundary_s));
       ("same_goodness", Json.Bool (diverged = None)) ]
    @ (match diverged with
      | Some what -> [ ("diverged", Json.Str what) ]
      | None -> [])
    @ [ ("violation", int bg.Metrics.violation);
        ("cut", int bg.Metrics.cut_value);
        ("active_sweeps", int frac_count);
        ("active_size_total", int active_size_total);
        ("active_fraction_mean", num frac_mean);
        ("active_fraction_max", num frac_max) ])

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
  Json.Obj
    [ ("n", int n); ("m", int (Wgraph.n_edges g)); ("k", int k);
      ("serial_refine_s", num serial_s);
      ("violation", int gd.Metrics.violation);
      ("cut", int gd.Metrics.cut_value) ]

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
  Json.Obj
    [ ("n", int n); ("m", int (Wgraph.n_edges g));
      ("levels", int (Coarsen.levels h_fast));
      ("legacy_build_s", num legacy_s); ("fast_build_s", num fast_s);
      ("speedup", num (legacy_s /. fast_s));
      ("legacy_alloc_words", num (Float.round legacy_words));
      ("fast_alloc_words", num (Float.round fast_words));
      ("alloc_ratio", num (legacy_words /. fast_words));
      ("bit_identical", Json.Bool identical) ]

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
let vcycle_row ~reps ~max_cycles (g, c) =
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
  [ ("n", int (Wgraph.n_nodes g)); ("m", int (Wgraph.n_edges g));
    ("k", int c.Types.k); ("max_cycles", int max_cycles);
    ("cycles_used", int !r1.Gp.cycles_used);
    ("jobs1_s", num !t1); ("jobs4_s", num !t4);
    ("jobs4_speedup", num (!t1 /. !t4));
    ("deterministic_across_jobs", Json.Bool (!r1.Gp.part = !r4.Gp.part)) ]

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
  let small =
    vcycle_row ~reps:4 ~max_cycles:20 (vcycle_instance ~layers:40 ~width:15)
  in
  let large =
    vcycle_row ~reps:3 ~max_cycles:20 (vcycle_instance ~layers:80 ~width:60)
  in
  Json.Obj (large @ [ ("gated_small", Json.Obj small) ])

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
  let fastest a = num (Array.fold_left min infinity a) in
  Json.Obj
    [ ("disabled_s", fastest offs); ("enabled_s", fastest ons);
      ("overhead_pct", num (pct_over trace_ratio));
      ("metrics_enabled_s", fastest mets);
      ("metrics_overhead_pct", num (pct_over metrics_ratio));
      ("trace_ratio", num trace_ratio); ("metrics_ratio", num metrics_ratio);
      ( "same_partition",
        Json.Bool
          (r_off.Gp.part = r_on.Gp.part && r_off.Gp.part = r_met.Gp.part) ) ]

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
  let ratio a b = num (float_of_int a /. float_of_int (max 1 b)) in
  (* One row per mode against the same multilevel run. *)
  let row name (r : Gp.result) secs extra =
    Json.Obj
      ([ ("n", int n); ("m", int (Wgraph.n_edges g)); ("k", int c.Types.k);
         (name ^ "_s", num secs); ("multilevel_s", num ml_s);
         ("speedup", num (ml_s /. secs)) ]
      @ extra
      @ [ (name ^ "_cut", int (cut r)); ("multilevel_cut", int (cut ml));
          ("cut_ratio", ratio (cut r) (cut ml));
          (name ^ "_violation", int (viol r));
          ("multilevel_violation", int (viol ml)) ])
  in
  ( row "stream" st stream_s
      [ ("nodes_per_s", num (float_of_int n /. stream_s));
        ("deterministic_across_jobs", Json.Bool (st.Gp.part = st4.Gp.part)) ],
    row "hybrid" hy hybrid_s [] )

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
  Json.Obj
    [ ("scale", int scale); ("n", int n); ("m", int (Wgraph.n_edges g));
      ("k", int k); ("generate_s", num gen_s); ("stream_s", num stream_s);
      ("nodes_per_s", num (float_of_int n /. stream_s));
      ("passes", int stats.Stream.iterations);
      ("converged", Json.Bool stats.Stream.converged);
      ("workspace_words", int (Workspace.words ws));
      ("state_words", int stats.Stream.state_words);
      ("violation", int gd.Metrics.violation);
      ("cut", int gd.Metrics.cut_value); ("e2e_bytes", int e2e_bytes);
      ("e2e_parse_then_stream_s", num e2e_parse_s);
      ( "multilevel_ref",
        Json.Obj
          [ ("scale", int ref_scale); ("n", int (Wgraph.n_nodes g_ref));
            ("m", int (Wgraph.n_edges g_ref)); ("multilevel_s", num ml_ref_s);
            ("multilevel_cut", int ml_ref_cut);
            ("stream_cut", int gd_ref.Metrics.cut_value);
            ( "cut_ratio",
              num
                (float_of_int gd_ref.Metrics.cut_value
                /. float_of_int (max 1 ml_ref_cut)) );
            ("multilevel_violation", int ml_ref.Gp.goodness.Metrics.violation);
            ("stream_violation", int gd_ref.Metrics.violation) ] ) ]

(* METIS text ingest: [Graph_io.of_metis] (the [Graph_io.Rows] reader)
   is how large streamed instances arrive, so its throughput is part of
   the streaming story. Serialize a mid-size R-MAT instance and time the
   parse (validation included — that *is* the ingest path); the
   round trip must give back an equal graph, so a silent tokenizer
   regression (a swapped weight or neighbour, say) is a loud one. *)
let ingest_bench ~scale ~reps =
  let m = 4 * (1 lsl scale) in
  let rng = Random.State.make [| 0x494f; scale |] in
  let g =
    Ppnpart_workloads.Rand_graph.rmat ~vw_range:(1, 8) ~ew_range:(1, 9) rng
      ~scale ~m
  in
  let text, to_s = time (fun () -> Graph_io.to_metis g) in
  let g2, of_s = compacted_min ~reps (fun () -> Graph_io.of_metis text) in
  if not (Wgraph.equal g2 g) then
    failwith "ingest_bench: of_metis roundtrip changed the graph";
  let bytes = String.length text in
  Json.Obj
    [ ("n", int (Wgraph.n_nodes g)); ("m", int (Wgraph.n_edges g));
      ("bytes", int bytes); ("to_metis_s", num to_s); ("of_metis_s", num of_s);
      ("mb_per_s", num (float_of_int bytes /. of_s /. 1e6));
      ("edges_per_s", num (float_of_int (Wgraph.n_edges g) /. of_s)) ]

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
  Json.Obj
    [ ("n", int n); ("m", int (Wgraph.n_edges g)); ("k", int k);
      ("ops", int (List.length ops)); ("touched", int edit.Graph_edit.touched);
      ("scratch_s", num scratch_s); ("incremental_s", num incr_s);
      ("apply_s", num apply_s); ("speedup", num (scratch_s /. incr_s));
      ("incremental", Json.Bool rp.Gp.rp_incremental);
      ("seeded", int rp.Gp.rp_seeded); ("violation", int gd.Metrics.violation);
      ("cut", int gd.Metrics.cut_value);
      ("scratch_cut", int scratch.Gp.goodness.Metrics.cut_value);
      ("feasible", Json.Bool rp.Gp.rp_result.Gp.feasible);
      ("feasible_agree", Json.Bool feasible_agree);
      ("never_worse", Json.Bool never_worse);
      ( "deterministic_across_jobs",
        Json.Bool (rp.Gp.rp_result.Gp.part = rp4.Gp.rp_result.Gp.part) ) ]

(* The record sections: print [doc] one top-level row per line, write
   it to bench_out/BENCH_<name>.json and append it to the history. *)
let print_doc doc =
  match doc with
  | Json.Obj rows ->
    List.iter
      (fun (key, v) -> Printf.printf "  %s: %s\n" key (Json.to_string v))
      rows
  | _ -> invalid_arg "print_doc: not an object"

let record name doc =
  ensure_out_dir ();
  print_doc doc;
  let path = Filename.concat out_dir ("BENCH_" ^ name ^ ".json") in
  Graph_io.write_file path (Json.to_string doc ^ "\n");
  Printf.printf "  wrote %s\n" path;
  append_history name doc

(* The blocking gate: every [Must_stay_true] and [At_most] row of
   [rules] must hold in [doc]. Runs after the document is printed or
   written, so a failing run still leaves the rows that show why. *)
let enforce ~rules doc =
  let failed =
    List.filter
      (fun (r : C.row) -> r.C.status <> C.Pass)
      (C.gate ~rules doc)
  in
  List.iter
    (fun (r : C.row) ->
      Printf.eprintf "gate FAIL %s: %s\n" r.C.concrete r.C.detail)
    failed;
  if failed <> [] then failwith "bench: a blocking gate row failed"

let bench_json () =
  section "Machine-readable benchmark record (BENCH_partition.json)";
  let instance_row (e : PG.experiment) =
    let r, snap =
      Ppnpart_obs.Obs.with_registry (fun () ->
          Gp.partition e.PG.graph e.PG.constraints)
    in
    let p name = num (phase_seconds snap name) in
    Json.Obj
      [ ("name", Json.Str e.PG.name);
        ("n", int (Wgraph.n_nodes e.PG.graph));
        ("m", int (Wgraph.n_edges e.PG.graph));
        ("k", int e.PG.constraints.Types.k);
        ("cut", int r.Gp.report.Metrics.total_cut);
        ("feasible", Json.Bool r.Gp.feasible);
        ("runtime_s", num r.Gp.runtime_s); ("cycles", int r.Gp.cycles_used);
        ("levels", int r.Gp.levels); ("jobs", int (Pool.width ()));
        ( "phases",
          Json.Obj
            [ ("coarsen_s", p "coarsen.level");
              ("initial_s", p "initial.greedy");
              ( "refine_s",
                num
                  (phase_seconds snap "refine.constrained"
                  +. phase_seconds snap "refine.tabu"
                  +. phase_seconds snap "refine.state_init") );
              ("vcycle_s", p "gp.cycle") ] ) ]
  in
  let instances = List.map instance_row PG.all in
  (* The headline micro-benchmarks stay observability-free so their
     numbers remain comparable with earlier records. *)
  let fm = fm_bench ~n:5000 ~m:20000 ~k:8 in
  let refine = refine_bench ~n:50_000 ~k:8 () in
  let refine_1m = serial_refine_bench ~n:1_000_000 ~k:16 ~reps:2 () in
  let coarsen = coarsen_bench ~n:50_000 ~m:200_000 in
  let vcycles = vcycle_bench () in
  let obs = obs_overhead () in
  let stream, hybrid = mode_bench ~n_target:200_000 ~reps:3 in
  let stream_1m = stream_1m_bench ~reps:3 () in
  let ingest = ingest_bench ~scale:17 ~reps:3 in
  let repartition = repartition_bench ~n:50_000 ~k:8 ~edit_pct:1 ~reps:3 () in
  let doc =
    Json.Obj
      [ ("schema", Json.Str "ppnpart-bench-partition/12");
        ("generated_unix", num (Unix.time ()));
        ("instances", Json.Arr instances); ("fm_5k", fm);
        ("refine_50k", refine); ("refine_1m", refine_1m);
        ("coarsen_50k", coarsen); ("vcycles_20", vcycles);
        ("obs_overhead", obs); ("stream_1m", stream_1m);
        ("stream_200k", stream); ("hybrid_200k", hybrid);
        ("ingest_131k", ingest); ("repartition_50k", repartition) ]
  in
  record "partition" doc;
  enforce ~rules:C.partition_rules doc

(* ------------------------------------------------------------------ *)
(* Smoke: the micro-benchmarks at shrunk sizes, gated.                 *)
(* ------------------------------------------------------------------ *)

(* The shrunk-size counterpart of BENCH_partition.json, cheap enough for
   a CI runner: the same measurement code on smaller instances. The
   structural fields (cuts, violations, determinism and bit-identity
   booleans) are seeded-deterministic and machine-independent, which is
   what `compare.exe` keys its tight thresholds on; timing fields get
   loose advisory bounds there. The blocking gate is
   [Compare_core.gate] over [smoke_rules]: every determinism and
   bit-identity boolean, plus the same-run orderings boundary refine <=
   legacy, hybrid <= multilevel, stream cut <= 20x multilevel cut and
   incremental repartition <= scratch. A row that is false or missing
   fails the run, after the rows are printed (and, in [json-smoke],
   written), so a failing run keeps the record of what diverged. *)
let smoke_doc () =
  let fm = fm_bench ~n:600 ~m:2400 ~k:4 in
  let refine = refine_bench ~n:4_000 ~k:8 () in
  let coarsen = coarsen_bench ~n:4_000 ~m:16_000 in
  let obs = obs_overhead () in
  let vcycles =
    vcycle_row ~reps:1 ~max_cycles:5 (vcycle_instance ~layers:20 ~width:10)
  in
  let stream, hybrid = mode_bench ~n_target:20_000 ~reps:2 in
  let ingest = ingest_bench ~scale:13 ~reps:2 in
  let repartition = repartition_bench ~n:4_000 ~k:8 ~edit_pct:1 ~reps:2 () in
  Json.Obj
    [ ("schema", Json.Str "ppnpart-bench-smoke/7");
      ("generated_unix", num (Unix.time ())); ("fm_600", fm);
      ("refine_4k", refine); ("coarsen_4k", coarsen);
      ("obs_overhead", obs); ("vcycles_5", Json.Obj vcycles);
      ("stream_20k", stream); ("hybrid_20k", hybrid);
      ("ingest_8k", ingest); ("repartition_4k", repartition) ]

let smoke () =
  section "Bench smoke (shrunk sizes, gated, no file written)";
  let doc = smoke_doc () in
  print_doc doc;
  enforce ~rules:C.smoke_rules doc

let bench_json_smoke () =
  section "Machine-readable smoke record (BENCH_smoke.json)";
  let doc = smoke_doc () in
  record "smoke" doc;
  enforce ~rules:C.smoke_rules doc

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
