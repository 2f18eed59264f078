(* Cross-cutting edge cases and algebraic invariants that don't belong to
   any single module's suite. *)

open Ppnpart_graph
open Ppnpart_partition
module Refine_oracle = Ppnpart_test_oracle.Refine_oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rng () = Random.State.make [| 11 |]

let random_graph ?(n = 14) r =
  let m = min (n * (n - 1) / 2) (2 * n) in
  Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 9) ~ew_range:(1, 9) r ~n ~m

(* --- constrained refinement on degenerate shapes --- *)

(* Past the 512-node exact-pass rescue, so only the boundary path runs. *)
let n_large = 700

(* Refine [part0] with the boundary refiner and with the full-scan
   oracle from identical rng states; partitions, goodness and rng
   consumption must agree bit-for-bit, and the result may never be
   worse than the start. Returns the common partition. *)
let assert_matches_oracle name g c part0 =
  let r_fast = Random.State.make [| 0xA1; 7 |] in
  let r_oracle = Random.State.copy r_fast in
  let part, gd = Refine_constrained.refine r_fast g c (Array.copy part0) in
  let part_oracle, gd_oracle =
    Refine_oracle.refine r_oracle g c (Array.copy part0)
  in
  check_bool (name ^ ": partitions bit-identical") true (part = part_oracle);
  check_int (name ^ ": violation") gd_oracle.Metrics.violation
    gd.Metrics.violation;
  check_int (name ^ ": cut") gd_oracle.Metrics.cut_value gd.Metrics.cut_value;
  check_int
    (name ^ ": same rng draws consumed")
    (Random.State.int r_oracle 1_000_000)
    (Random.State.int r_fast 1_000_000);
  check_bool (name ^ ": never worse") true
    (Metrics.compare_goodness gd (Metrics.goodness g c part0) <= 0);
  part

(* k = 2: one part pair only — every move touches both parts. *)
let test_refine_k2_single_pair () =
  let r = Random.State.make [| 21 |] in
  let g, c =
    Ppnpart_workloads.Rand_graph.random_partitionable r ~n:n_large ~k:2
  in
  let part0 = Array.init n_large (fun u -> u * 2 / n_large) in
  for _ = 1 to n_large / 50 do
    let u = Random.State.int r n_large in
    part0.(u) <- 1 - part0.(u)
  done;
  ignore (assert_matches_oracle "k2" g c part0)

(* Alternating labels on a connected graph: every node is boundary, so
   the active set is the whole graph. *)
let test_refine_all_nodes_active () =
  let r = Random.State.make [| 22 |] in
  let g, c =
    Ppnpart_workloads.Rand_graph.random_partitionable r ~n:n_large ~k:4
  in
  let part0 = Array.init n_large (fun u -> u mod 4) in
  let st = Part_state.init g c (Array.copy part0) in
  check_int "everything starts active" n_large st.Part_state.n_active;
  ignore (assert_matches_oracle "all-active" g c part0)

(* Disjoint rings, each wholly inside one part, loads within Rmax: the
   active set is empty and the partition must come back untouched. *)
let test_refine_empty_active_set () =
  let k = 4 in
  let per = n_large / k in
  let n = per * k in
  let edges = ref [] in
  for comp = 0 to k - 1 do
    let base = comp * per in
    for i = 0 to per - 1 do
      edges := (base + i, base + ((i + 1) mod per), 2) :: !edges
    done
  done;
  let g = Wgraph.of_edges ~vwgt:(Array.make n 1) n !edges in
  let c = Types.constraints ~k ~bmax:1 ~rmax:(per + 10) in
  let part0 = Array.init n (fun u -> u / per) in
  let st = Part_state.init g c (Array.copy part0) in
  check_int "active set empty" 0 st.Part_state.n_active;
  let refined = assert_matches_oracle "empty-active" g c part0 in
  check_bool "partition untouched" true (refined = part0)

(* --- graph algebra --- *)

let test_induced_all_nodes_is_identity () =
  let g = random_graph (rng ()) in
  let sub, _ = Wgraph.induced g (Array.init (Wgraph.n_nodes g) (fun i -> i)) in
  check_bool "identity" true (Wgraph.equal g sub)

let prop_bandwidth_matrix_sums_to_cut =
  QCheck2.Test.make
    ~name:"sum of pairwise bandwidths equals the cut" ~count:60
    QCheck2.Gen.(pair (int_range 4 24) (int_range 2 5))
    (fun (n, k) ->
      let r = Random.State.make [| n; k |] in
      let g = random_graph ~n r in
      let part = Initial.random_kway r g ~k in
      let m = Metrics.bandwidth_matrix g ~k part in
      let sum = ref 0 in
      for p = 0 to k - 1 do
        for q = p + 1 to k - 1 do
          sum := !sum + m.(p).(q)
        done
      done;
      !sum = Metrics.cut g part)

let prop_part_resources_sum_to_total =
  QCheck2.Test.make
    ~name:"per-part resources sum to the total node weight" ~count:60
    QCheck2.Gen.(pair (int_range 2 24) (int_range 1 5))
    (fun (n, k) ->
      let r = Random.State.make [| n; k; 2 |] in
      let g = random_graph ~n r in
      let part = Initial.random_kway r g ~k in
      Array.fold_left ( + ) 0 (Metrics.part_resources g ~k part)
      = Wgraph.total_node_weight g)

let prop_contract_twice_still_valid =
  QCheck2.Test.make ~name:"two rounds of contraction stay consistent"
    ~count:40
    QCheck2.Gen.(int_range 6 30)
    (fun n ->
      let r = Random.State.make [| n; 5 |] in
      let g = random_graph ~n r in
      let m1 = Matching.random_maximal r g in
      let g1, map1 = Coarsen.contract g m1 in
      let m2 = Matching.heavy_edge r g1 in
      let g2, map2 = Coarsen.contract g1 m2 in
      Wgraph.validate g2;
      (* composed projection preserves the cut *)
      let part2 = Array.init (Wgraph.n_nodes g2) (fun i -> i mod 2) in
      let part1 = Coarsen.project_one map2 part2 in
      let part0 = Coarsen.project_one map1 part1 in
      Metrics.cut g2 part2 = Metrics.cut g part0
      && Wgraph.total_node_weight g2 = Wgraph.total_node_weight g)

(* --- degenerate k --- *)

let test_gp_with_k1 () =
  let g = random_graph (rng ()) in
  let total = Wgraph.total_node_weight g in
  let c = Types.constraints ~k:1 ~bmax:0 ~rmax:total in
  let r = Ppnpart_core.Gp.partition g c in
  (* k = 1: no pairs, bandwidth holds vacuously; rmax = total holds. *)
  check_bool "feasible" true r.Ppnpart_core.Gp.feasible;
  check_int "no cut" 0 r.Ppnpart_core.Gp.report.Metrics.total_cut;
  let tight = Types.constraints ~k:1 ~bmax:0 ~rmax:(total - 1) in
  check_bool "k=1 infeasible when rmax < total" false
    (Ppnpart_core.Gp.partition g tight).Ppnpart_core.Gp.feasible

let test_metrics_k1 () =
  let g = random_graph (rng ()) in
  let part = Array.make (Wgraph.n_nodes g) 0 in
  check_int "no local bandwidth" 0 (Metrics.max_local_bandwidth g ~k:1 part);
  check_int "all resources in one part"
    (Wgraph.total_node_weight g)
    (Metrics.max_resource g ~k:1 part)

(* --- sim invariants --- *)

let test_sim_busy_at_most_cycles () =
  let ppn =
    Ppnpart_ppn.Derive.derive (Ppnpart_ppn.Kernels.unsharp ~n:32 ())
  in
  let n = Ppnpart_ppn.Ppn.n_processes ppn in
  let plat = Ppnpart_fpga.Platform.make ~n_fpgas:2 ~rmax:100_000 ~bmax:2 () in
  match
    Ppnpart_fpga.Sim.run plat ppn ~assignment:(Array.init n (fun i -> i mod 2))
  with
  | Ok r ->
    check_bool "busy <= cycles" true
      (r.Ppnpart_fpga.Sim.busy_cycles <= r.Ppnpart_fpga.Sim.cycles);
    check_bool "throughput positive" true
      (Ppnpart_fpga.Sim.throughput r > 0.)
  | Error e -> Alcotest.failf "sim error: %a" Ppnpart_fpga.Sim.pp_error e

(* --- lang: equality guard --- *)

let test_lang_equality_guard () =
  (* where i = j carves the diagonal out of the square. *)
  let src = "stmt diag (i : 0 .. 7, j : 0 .. 7) where i = j { write A[i][j] }" in
  match Ppnpart_lang.Lang.parse_program src with
  | Ok [ s ] -> check_int "diagonal" 8 (Ppnpart_poly.Stmt.iterations s)
  | Ok _ -> Alcotest.fail "expected one statement"
  | Error e -> Alcotest.failf "parse error: %a" Ppnpart_lang.Lang.pp_error e

let test_lang_empty_domain_ok () =
  (* An empty domain is legal: zero iterations, no channels. *)
  let src = "stmt never (i : 5 .. 4) { write A[i] }" in
  match Ppnpart_lang.Lang.parse_program src with
  | Ok [ s ] ->
    check_int "empty" 0 (Ppnpart_poly.Stmt.iterations s);
    check_int "no flows" 0
      (List.length (Ppnpart_poly.Dependence.flow_edges [ s ]))
  | Ok _ -> Alcotest.fail "expected one statement"
  | Error e -> Alcotest.failf "parse error: %a" Ppnpart_lang.Lang.pp_error e

(* --- exact: symmetry of optimum --- *)

let prop_exact_invariant_under_relabeling =
  QCheck2.Test.make
    ~name:"exact optimal cut is invariant under node relabeling" ~count:15
    QCheck2.Gen.(int_range 5 9)
    (fun n ->
      let r = Random.State.make [| n; 8 |] in
      let g = random_graph ~n r in
      let perm = Array.init n (fun i -> (i + 3) mod n) in
      let g' = Wgraph.relabel g perm in
      let c = Types.unconstrained ~k:2 in
      match
        ( Ppnpart_baselines.Exact.partition ~require_all_parts:true g c,
          Ppnpart_baselines.Exact.partition ~require_all_parts:true g' c )
      with
      | Some (_, cut), Some (_, cut') -> cut = cut'
      | _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bandwidth_matrix_sums_to_cut;
      prop_part_resources_sum_to_total;
      prop_contract_twice_still_valid;
      prop_exact_invariant_under_relabeling;
    ]

let () =
  Alcotest.run "edge_cases"
    [
      ( "edge-cases",
        [
          Alcotest.test_case "k=2 single part-pair" `Quick
            test_refine_k2_single_pair;
          Alcotest.test_case "all nodes active" `Quick
            test_refine_all_nodes_active;
          Alcotest.test_case "empty active set" `Quick
            test_refine_empty_active_set;
        ] );
      ( "graph_algebra",
        [
          Alcotest.test_case "induced identity" `Quick
            test_induced_all_nodes_is_identity;
        ] );
      ( "degenerate_k",
        [
          Alcotest.test_case "gp k=1" `Quick test_gp_with_k1;
          Alcotest.test_case "metrics k=1" `Quick test_metrics_k1;
        ] );
      ( "sim",
        [
          Alcotest.test_case "busy <= cycles" `Quick
            test_sim_busy_at_most_cycles;
        ] );
      ( "lang",
        [
          Alcotest.test_case "equality guard" `Quick test_lang_equality_guard;
          Alcotest.test_case "empty domain" `Quick test_lang_empty_domain_ok;
        ] );
      ("properties", qcheck_cases);
    ]
