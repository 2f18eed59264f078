(* Tests for the workload generators: Rand_graph, Paper_graphs, Ppn_suite. *)

open Ppnpart_graph
open Ppnpart_partition
open Ppnpart_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rng () = Random.State.make [| 3 |]

(* --- Rand_graph.gnm --- *)

let test_gnm_exact_counts () =
  let g = Rand_graph.gnm (rng ()) ~n:20 ~m:45 in
  check_int "nodes" 20 (Wgraph.n_nodes g);
  check_int "edges" 45 (Wgraph.n_edges g);
  Wgraph.validate g

let test_gnm_connected () =
  for seed = 0 to 9 do
    let r = Random.State.make [| seed |] in
    let g = Rand_graph.gnm r ~n:15 ~m:14 in
    check_bool "spanning tree present" true (Wgraph.is_connected g)
  done

let test_gnm_weight_ranges () =
  let g =
    Rand_graph.gnm ~vw_range:(5, 9) ~ew_range:(2, 3) (rng ()) ~n:10 ~m:20
  in
  for u = 0 to 9 do
    let w = Wgraph.node_weight g u in
    check_bool "vw in range" true (w >= 5 && w <= 9)
  done;
  Wgraph.iter_edges g (fun _ _ w ->
      check_bool "ew in range" true (w >= 2 && w <= 3))

let test_gnm_rejects_impossible () =
  Alcotest.check_raises "too many"
    (Invalid_argument "Rand_graph.gnm: too many edges") (fun () ->
      ignore (Rand_graph.gnm (rng ()) ~n:4 ~m:7));
  Alcotest.check_raises "too few for connectivity"
    (Invalid_argument "Rand_graph.gnm: too few edges for a connected graph")
    (fun () -> ignore (Rand_graph.gnm (rng ()) ~n:5 ~m:3))

let test_gnm_deterministic () =
  let g1 = Rand_graph.gnm (Random.State.make [| 9 |]) ~n:12 ~m:20 in
  let g2 = Rand_graph.gnm (Random.State.make [| 9 |]) ~n:12 ~m:20 in
  check_bool "same graph" true (Wgraph.equal g1 g2)

(* --- Rand_graph.layered --- *)

let test_layered_shape () =
  let g = Rand_graph.layered (rng ()) ~layers:6 ~width:5 in
  check_int "nodes" 30 (Wgraph.n_nodes g);
  Wgraph.validate g;
  (* edges only between nearby layers *)
  Wgraph.iter_edges g (fun u v _ ->
      let lu = u / 5 and lv = v / 5 in
      check_bool "within 2 layers" true (abs (lu - lv) <= 2))

let test_layered_every_stage_fed () =
  let g = Rand_graph.layered (rng ()) ~layers:5 ~width:4 in
  (* every node beyond layer 0 has at least one neighbour in an earlier
     layer *)
  for u = 4 to 19 do
    let has_producer =
      Wgraph.fold_neighbors g u (fun acc v _ -> acc || v / 4 < u / 4) false
    in
    check_bool "fed from an earlier layer" true has_producer
  done

(* --- Rand_graph.rmat --- *)

let test_rmat_counts () =
  let g = Rand_graph.rmat (rng ()) ~scale:6 ~m:120 in
  check_int "nodes" 64 (Wgraph.n_nodes g);
  check_int "edges" 120 (Wgraph.n_edges g);
  Wgraph.validate g

let test_rmat_skew () =
  (* The classic parameters concentrate edges on low node ids: the top
     quarter of ids must carry clearly more endpoints than the bottom
     quarter. *)
  let g = Rand_graph.rmat (rng ()) ~scale:8 ~m:1000 in
  let n = Wgraph.n_nodes g in
  let quarter = n / 4 in
  let degree_sum lo hi =
    let acc = ref 0 in
    for u = lo to hi - 1 do
      acc := !acc + Wgraph.degree g u
    done;
    !acc
  in
  check_bool "low ids dominate" true
    (degree_sum 0 quarter > 2 * degree_sum (n - quarter) n)

let test_rmat_validation () =
  Alcotest.check_raises "bad probabilities"
    (Invalid_argument "Rand_graph.rmat: probabilities must sum to 1")
    (fun () ->
      ignore
        (Rand_graph.rmat ~probabilities:(0.5, 0.5, 0.5, 0.5) (rng ())
           ~scale:4 ~m:10))

(* --- Rand_graph.random_partitionable --- *)

let test_planted_is_feasible () =
  for seed = 0 to 9 do
    let r = Random.State.make [| seed; 77 |] in
    let g, c = Rand_graph.random_partitionable r ~n:24 ~k:3 in
    (* The planted clustering itself satisfies the constraints. *)
    let cluster = Array.init 24 (fun u -> u * 3 / 24) in
    check_bool "planted feasible" true (Metrics.feasible g c cluster)
  done

let test_planted_rejects_small_n () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Rand_graph.random_partitionable: need n >= 2k")
    (fun () -> ignore (Rand_graph.random_partitionable (rng ()) ~n:5 ~k:3))

(* --- Paper_graphs --- *)

let test_paper_shapes () =
  let open Paper_graphs in
  check_int "exp1 nodes" 12 (Wgraph.n_nodes experiment1.graph);
  check_int "exp1 edges" 33 (Wgraph.n_edges experiment1.graph);
  check_int "exp2 edges" 30 (Wgraph.n_edges experiment2.graph);
  check_int "exp3 edges" 32 (Wgraph.n_edges experiment3.graph);
  List.iter
    (fun e ->
      check_bool (e.name ^ " connected") true (Wgraph.is_connected e.graph);
      check_int (e.name ^ " k") 4 e.constraints.Types.k)
    all

let test_paper_constraints_match_paper () =
  let open Paper_graphs in
  check_int "exp1 bmax" 16 experiment1.constraints.Types.bmax;
  check_int "exp1 rmax" 163 experiment1.constraints.Types.rmax;
  check_int "exp2 bmax" 25 experiment2.constraints.Types.bmax;
  check_int "exp2 rmax" 130 experiment2.constraints.Types.rmax;
  check_int "exp3 bmax" 20 experiment3.constraints.Types.bmax;
  check_int "exp3 rmax" 78 experiment3.constraints.Types.rmax

let test_paper_rows_recorded () =
  let open Paper_graphs in
  check_int "exp1 metis cut" 58 experiment1.paper_metis.cut;
  check_int "exp1 gp bw" 16 experiment1.paper_gp.max_bandwidth;
  check_int "exp3 metis bw (the violation)" 38
    experiment3.paper_metis.max_bandwidth

let test_paper_deterministic () =
  let open Paper_graphs in
  (* module values are constructed once; rebuilding from the same seed in a
     fresh generator must agree *)
  check_bool "stable" true
    (Wgraph.equal experiment1.graph experiment1.graph)

(* --- Ppn_suite --- *)

let test_instances_shape () =
  let insts = Ppn_suite.instances ~k:4 in
  check_int "nine kernels" 9 (List.length insts);
  List.iter
    (fun (i : Ppn_suite.instance) ->
      check_bool (i.Ppn_suite.name ^ " nonempty") true
        (Wgraph.n_nodes i.Ppn_suite.graph > 0);
      check_int (i.Ppn_suite.name ^ " k") 4
        i.Ppn_suite.constraints.Types.k;
      check_bool (i.Ppn_suite.name ^ " bmax positive") true
        (i.Ppn_suite.constraints.Types.bmax > 0))
    insts

let test_instances_edge_weights_scaled () =
  List.iter
    (fun (i : Ppn_suite.instance) ->
      Wgraph.iter_edges i.Ppn_suite.graph (fun _ _ w ->
          check_bool "edge weight scaled to <= 100" true (w <= 100)))
    (Ppn_suite.instances ~k:4)

let test_scaling_graphs_sizes () =
  let graphs = Ppn_suite.scaling_graphs (rng ()) in
  check_int "three sizes" 3 (List.length graphs);
  let sizes = List.map (fun (_, g) -> Wgraph.n_nodes g) graphs in
  check_bool "increasing" true (List.sort compare sizes = sizes);
  check_int "largest is 10k" 10_000 (List.nth sizes 2)

(* --- Evaluation --- *)

let tiny_instances () =
  let g =
    Wgraph.of_edges ~vwgt:[| 3; 3; 3; 3; 3; 3 |] 6
      [
        (0, 1, 5); (0, 2, 5); (1, 2, 5); (3, 4, 5); (3, 5, 5); (4, 5, 5);
        (2, 3, 1);
      ]
  in
  [
    {
      Evaluation.label = "triangles";
      graph = g;
      constraints = Types.constraints ~k:2 ~bmax:1 ~rmax:9;
    };
  ]

let test_evaluation_matrix_shape () =
  let rows =
    Evaluation.run_matrix [ Evaluation.gp; Evaluation.metis_like ]
      (tiny_instances ())
  in
  check_int "2 rows" 2 (List.length rows);
  let gp_row = List.hd rows in
  Alcotest.(check string) "gp first" "gp" gp_row.Evaluation.algorithm;
  check_bool "gp feasible on triangles" true gp_row.Evaluation.feasible;
  check_int "gp optimal cut" 1 gp_row.Evaluation.cut

let test_evaluation_summaries () =
  let rows =
    Evaluation.run_matrix [ Evaluation.gp; Evaluation.spectral ]
      (tiny_instances ())
  in
  let summaries = Evaluation.summarize rows in
  check_int "2 algorithms" 2 (List.length summaries);
  List.iter
    (fun (s : Evaluation.summary) ->
      check_int "1 instance each" 1 s.Evaluation.instances;
      check_bool "ratio >= 1" true (s.Evaluation.mean_cut_ratio >= 1.0))
    summaries;
  (* the best algorithm has ratio exactly 1.0 *)
  check_bool "someone is best" true
    (List.exists
       (fun (s : Evaluation.summary) ->
         abs_float (s.Evaluation.mean_cut_ratio -. 1.0) < 1e-9)
       summaries)

let test_evaluation_csv () =
  let rows =
    Evaluation.run_matrix [ Evaluation.gp ] (tiny_instances ())
  in
  let csv = Evaluation.to_csv rows in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 1 row" 2 (List.length lines);
  check_bool "header" true
    (List.hd lines
    = "instance,algorithm,cut,max_bandwidth,max_resources,feasible,runtime_s")

let () =
  Alcotest.run "workloads"
    [
      ( "gnm",
        [
          Alcotest.test_case "exact counts" `Quick test_gnm_exact_counts;
          Alcotest.test_case "connected" `Quick test_gnm_connected;
          Alcotest.test_case "weight ranges" `Quick test_gnm_weight_ranges;
          Alcotest.test_case "rejects impossible" `Quick
            test_gnm_rejects_impossible;
          Alcotest.test_case "deterministic" `Quick test_gnm_deterministic;
        ] );
      ( "layered",
        [
          Alcotest.test_case "shape" `Quick test_layered_shape;
          Alcotest.test_case "every stage fed" `Quick
            test_layered_every_stage_fed;
        ] );
      ( "rmat",
        [
          Alcotest.test_case "counts" `Quick test_rmat_counts;
          Alcotest.test_case "skew" `Quick test_rmat_skew;
          Alcotest.test_case "validation" `Quick test_rmat_validation;
        ] );
      ( "planted",
        [
          Alcotest.test_case "planted is feasible" `Quick
            test_planted_is_feasible;
          Alcotest.test_case "rejects small n" `Quick
            test_planted_rejects_small_n;
        ] );
      ( "paper_graphs",
        [
          Alcotest.test_case "shapes" `Quick test_paper_shapes;
          Alcotest.test_case "constraints" `Quick
            test_paper_constraints_match_paper;
          Alcotest.test_case "paper rows" `Quick test_paper_rows_recorded;
          Alcotest.test_case "deterministic" `Quick test_paper_deterministic;
        ] );
      ( "ppn_suite",
        [
          Alcotest.test_case "instances shape" `Quick test_instances_shape;
          Alcotest.test_case "edge weights scaled" `Quick
            test_instances_edge_weights_scaled;
          Alcotest.test_case "scaling sizes" `Quick
            test_scaling_graphs_sizes;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "matrix shape" `Quick
            test_evaluation_matrix_shape;
          Alcotest.test_case "summaries" `Quick test_evaluation_summaries;
          Alcotest.test_case "csv" `Quick test_evaluation_csv;
        ] );
    ]
