(* Tests for the extensions beyond the paper's core algorithm that the
   shipped partitioner runs: the incremental partition state, the
   tabu-search refinement behind GP's rescue of small infeasible results,
   and ring/mesh platform topologies with routed traffic. *)

open Ppnpart_graph
open Ppnpart_partition

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rng () = Random.State.make [| 5 |]

let two_triangles () =
  Wgraph.of_edges ~vwgt:[| 3; 3; 3; 3; 3; 3 |] 6
    [
      (0, 1, 5); (0, 2, 5); (1, 2, 5);
      (3, 4, 5); (3, 5, 5); (4, 5, 5);
      (2, 3, 1);
    ]

(* --- Part_state --- *)

let test_part_state_init_matches_metrics () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:3 ~rmax:8 in
  let part = [| 0; 1; 0; 1; 0; 1 |] in
  let st = Part_state.init g c part in
  check_int "cut" (Metrics.cut g part) st.Part_state.cut;
  check_int "bw excess" (Metrics.bandwidth_excess g c part)
    st.Part_state.bw_excess;
  check_int "res excess" (Metrics.resource_excess g c part)
    st.Part_state.res_excess

let test_part_state_apply_move_consistent () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:3 ~rmax:9 in
  let st = Part_state.init g c [| 0; 1; 0; 1; 0; 1 |] in
  let conn = Array.make 2 0 in
  (* Move every node once and cross-check against recomputation. *)
  for u = 0 to 5 do
    if st.Part_state.members.(st.Part_state.part.(u)) > 1 then begin
      Part_state.connectivity st conn u;
      Part_state.apply_move st u (1 - st.Part_state.part.(u)) conn;
      let part = Part_state.snapshot st in
      check_int "cut consistent" (Metrics.cut g part) st.Part_state.cut;
      check_int "bw consistent" (Metrics.bandwidth_excess g c part)
        st.Part_state.bw_excess;
      check_int "res consistent" (Metrics.resource_excess g c part)
        st.Part_state.res_excess
    end
  done

(* --- Refine_tabu --- *)

let test_tabu_never_worse () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:1 ~rmax:9 in
  let start = [| 0; 1; 0; 1; 0; 1 |] in
  let before = Metrics.goodness g c start in
  let _, after = Refine_tabu.refine g c start in
  check_bool "not worse" true (Metrics.compare_goodness after before <= 0)

let test_tabu_escapes_greedy_minimum () =
  (* From the interleaved start every single move worsens something; tabu's
     forced moves walk out and find the bridge cut. *)
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:1 ~rmax:9 in
  let part, gd = Refine_tabu.refine ~iterations:200 g c [| 0; 1; 0; 1; 0; 1 |] in
  check_int "feasible" 0 gd.Metrics.violation;
  check_int "optimal cut" 1 gd.Metrics.cut_value;
  check_bool "triangle together" true
    (part.(0) = part.(1) && part.(1) = part.(2))

let test_tabu_reported_goodness_matches () =
  let r = rng () in
  let g =
    Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 9) ~ew_range:(1, 9) r
      ~n:18 ~m:40
  in
  let c = Types.constraints ~k:3 ~bmax:30 ~rmax:40 in
  let start = Initial.random_kway r g ~k:3 in
  let part, gd = Refine_tabu.refine g c start in
  let fresh = Metrics.goodness g c part in
  check_int "violation agrees" fresh.Metrics.violation gd.Metrics.violation;
  check_int "cut agrees" fresh.Metrics.cut_value gd.Metrics.cut_value

(* --- Topologies and routing --- *)

module Platform = Ppnpart_fpga.Platform
module Mapping = Ppnpart_fpga.Mapping
module Sim = Ppnpart_fpga.Sim

let test_ring_routes () =
  let p = Platform.make ~topology:Platform.Ring ~n_fpgas:6 ~rmax:10 ~bmax:5 () in
  check_bool "adjacent linked" true (Platform.linked p 2 3);
  check_bool "wraparound linked" true (Platform.linked p 0 5);
  check_bool "distant not linked" false (Platform.linked p 0 3);
  Alcotest.(check (list (pair int int)))
    "short way" [ (0, 1); (1, 2) ] (Platform.route p 0 2);
  Alcotest.(check (list (pair int int)))
    "wrap the other way" [ (0, 5) ] (Platform.route p 0 5);
  check_int "ring has n links" 6 (List.length (Platform.links p))

let test_mesh_routes () =
  let p =
    Platform.make ~topology:(Platform.Mesh (2, 3)) ~n_fpgas:6 ~rmax:10
      ~bmax:5 ()
  in
  (* ids: 0 1 2 / 3 4 5 *)
  check_bool "horizontal" true (Platform.linked p 0 1);
  check_bool "vertical" true (Platform.linked p 1 4);
  check_bool "diagonal not" false (Platform.linked p 0 4);
  (* X-then-Y from 0 to 5: 0-1, 1-2, 2-5 *)
  Alcotest.(check (list (pair int int)))
    "xy routing" [ (0, 1); (1, 2); (2, 5) ] (Platform.route p 0 5);
  check_int "mesh 2x3 has 7 links" 7 (List.length (Platform.links p))

let test_mesh_dimension_check () =
  Alcotest.check_raises "bad mesh"
    (Invalid_argument "Platform.make: mesh dimensions must multiply to n_fpgas")
    (fun () ->
      ignore
        (Platform.make ~topology:(Platform.Mesh (2, 2)) ~n_fpgas:6 ~rmax:1
           ~bmax:1 ()))

let test_routed_link_traffic () =
  (* 3-FPGA ring... ring needs >= 2; use a 1x3 mesh (a path): traffic from
     FPGA 0 to FPGA 2 loads both links. *)
  let plat =
    Platform.make ~topology:(Platform.Mesh (1, 3)) ~n_fpgas:3 ~rmax:1000
      ~bmax:1000 ()
  in
  let procs =
    [|
      Ppnpart_ppn.Process.make ~id:0 ~name:"a" ~iterations:4 ~work:1
        ~resources:1;
      Ppnpart_ppn.Process.make ~id:1 ~name:"b" ~iterations:4 ~work:1
        ~resources:1;
    |]
  in
  let ppn =
    Ppnpart_ppn.Ppn.make procs [ Ppnpart_ppn.Channel.make ~src:0 ~dst:1 4 ]
  in
  let m = Mapping.of_partition plat ppn [| 0; 2 |] in
  let pair = Mapping.pair_traffic m and link = Mapping.link_traffic m in
  check_int "pair traffic endpoint" 4 pair.(0).(2);
  check_int "pair traffic not on middle" 0 pair.(0).(1);
  check_int "link 0-1 loaded" 4 link.(0).(1);
  check_int "link 1-2 loaded" 4 link.(1).(2);
  check_int "no direct 0-2 link traffic" 0 link.(0).(2)

let test_sim_on_path_topology () =
  (* The same channel across a 3-FPGA path completes, moving data over
     both physical links. *)
  let plat =
    Platform.make ~topology:(Platform.Mesh (1, 3)) ~n_fpgas:3 ~rmax:1000
      ~bmax:2 ()
  in
  let ppn =
    Ppnpart_ppn.Derive.derive (Ppnpart_ppn.Kernels.chain ~stages:3 ~tokens:24 ())
  in
  let n = Ppnpart_ppn.Ppn.n_processes ppn in
  (* place consecutive stages on consecutive FPGAs *)
  let assignment = Array.init n (fun i -> min 2 (i * 3 / n)) in
  match Sim.run plat ppn ~assignment with
  | Ok r ->
    check_bool "completes" true (r.Sim.cycles > 0);
    check_bool "no phantom 0-2 link" true (r.Sim.data_moved.(0).(2) = 0)
  | Error e -> Alcotest.failf "sim error: %a" Sim.pp_error e

let test_sim_multihop_slower_than_direct () =
  (* Identical network and mapping; path topology forces 2-hop traffic
     through the middle link, all-to-all gives a private link: the path
     run can never be faster. *)
  let ppn =
    Ppnpart_ppn.Derive.derive (Ppnpart_ppn.Kernels.chain ~stages:4 ~tokens:48 ())
  in
  let n = Ppnpart_ppn.Ppn.n_processes ppn in
  let assignment = Array.init n (fun i -> i mod 3) in
  let run topology =
    let plat = Platform.make ~topology ~n_fpgas:3 ~rmax:100_000 ~bmax:1 () in
    match Sim.run plat ppn ~assignment with
    | Ok r -> r.Sim.cycles
    | Error e -> Alcotest.failf "sim error: %a" Sim.pp_error e
  in
  let direct = run Platform.All_to_all in
  let path = run (Platform.Mesh (1, 3)) in
  check_bool "path never faster" true (path >= direct)

let () =
  Alcotest.run "extensions"
    [
      ( "part_state",
        [
          Alcotest.test_case "init matches metrics" `Quick
            test_part_state_init_matches_metrics;
          Alcotest.test_case "apply_move consistent" `Quick
            test_part_state_apply_move_consistent;
        ] );
      ( "tabu",
        [
          Alcotest.test_case "never worse" `Quick test_tabu_never_worse;
          Alcotest.test_case "escapes greedy minimum" `Quick
            test_tabu_escapes_greedy_minimum;
          Alcotest.test_case "goodness matches" `Quick
            test_tabu_reported_goodness_matches;
        ] );
      ( "topology",
        [
          Alcotest.test_case "ring routes" `Quick test_ring_routes;
          Alcotest.test_case "mesh routes" `Quick test_mesh_routes;
          Alcotest.test_case "mesh dimension check" `Quick
            test_mesh_dimension_check;
          Alcotest.test_case "routed link traffic" `Quick
            test_routed_link_traffic;
          Alcotest.test_case "sim on path" `Quick test_sim_on_path_topology;
          Alcotest.test_case "multihop slower" `Quick
            test_sim_multihop_slower_than_direct;
        ] );
    ]
