(* Tests for the streaming/restreaming partitioner (Stream) and the
   stream/hybrid Gp modes (DESIGN.md §6.5). *)

open Ppnpart_graph
open Ppnpart_partition
module Config = Ppnpart_core.Config
module Gp = Ppnpart_core.Gp
module Rand_graph = Ppnpart_workloads.Rand_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_parts msg a b =
  Alcotest.(check (array int)) msg a b

let quick = Sys.getenv_opt "PPNPART_QUICK" <> None

let rng seed = Random.State.make [| seed |]

(* 6-node two triangles + bridge: {0,1,2} and {3,4,5} tied by one light
   edge — any sane partitioner cuts the bridge. *)
let two_triangles () =
  Wgraph.of_edges ~vwgt:[| 3; 3; 3; 3; 3; 3 |] 6
    [
      (0, 1, 5); (0, 2, 5); (1, 2, 5);
      (3, 4, 5); (3, 5, 5); (4, 5, 5);
      (2, 3, 1);
    ]

let random_instance seed =
  let r = rng seed in
  let n = 60 + Random.State.int r 80 in
  let m = min (n * (n - 1) / 2) (2 * n + Random.State.int r (3 * n)) in
  let g =
    Rand_graph.gnm ~vw_range:(1, 4) ~ew_range:(1, 5) r ~n ~m
  in
  let k = 2 + Random.State.int r 5 in
  (g, Types.unconstrained ~k)

(* --- Stream.partition directly --- *)

let test_stream_valid_partition () =
  for seed = 0 to 19 do
    let g, c = random_instance seed in
    let part, stats = Stream.partition g c in
    Types.check_partition ~n:(Wgraph.n_nodes g) ~k:c.Types.k part;
    check_bool
      (Printf.sprintf "seed %d: iterations in bounds" seed)
      true
      (stats.Stream.iterations >= 1
      && stats.Stream.iterations <= Stream.default_iterations);
    check_int
      (Printf.sprintf "seed %d: moved per iteration" seed)
      stats.Stream.iterations
      (Array.length stats.Stream.moved)
  done

let test_stream_deterministic () =
  (* No rng anywhere: two runs on the same instance are bit-identical,
     including through a reused workspace. *)
  let ws = Workspace.create () in
  for seed = 0 to 9 do
    let g, c = random_instance seed in
    let p1, s1 = Stream.partition ~workspace:ws g c in
    let p2, s2 = Stream.partition ~workspace:ws g c in
    let p3, _ = Stream.partition g c in
    check_parts (Printf.sprintf "seed %d: reused ws" seed) p1 p2;
    check_parts (Printf.sprintf "seed %d: fresh ws" seed) p1 p3;
    check_int
      (Printf.sprintf "seed %d: same iterations" seed)
      s1.Stream.iterations s2.Stream.iterations
  done

let test_stream_cuts_bridge () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:max_int ~rmax:12 in
  let part, _ = Stream.partition g c in
  let gd = Metrics.goodness g c part in
  check_int "triangles separated, bridge cut" 1 gd.Metrics.cut_value;
  check_int "feasible" 0 gd.Metrics.violation

let test_stream_state_words () =
  let g, c = random_instance 3 in
  let n = Wgraph.n_nodes g and k = c.Types.k in
  let _, stats = Stream.partition g c in
  check_int "O(n + k + k^2) live state" (n + (k * k) + (3 * k))
    stats.Stream.state_words

let test_stream_respects_rmax_under_slack () =
  (* On planted-feasible instances the load penalty must keep every part
     at or near the resource bound: allow the documented best-effort
     slack of one heaviest node over Rmax. *)
  for seed = 0 to 9 do
    let g, c = Rand_graph.random_partitionable (rng seed) ~n:120 ~k:4 in
    let part, _ = Stream.partition g c in
    let loads = Array.make c.Types.k 0 in
    Array.iteri
      (fun u p -> loads.(p) <- loads.(p) + Wgraph.node_weight g u)
      part;
    let heaviest = ref 1 in
    for u = 0 to Wgraph.n_nodes g - 1 do
      heaviest := max !heaviest (Wgraph.node_weight g u)
    done;
    Array.iteri
      (fun p load ->
        check_bool
          (Printf.sprintf "seed %d: part %d load %d vs rmax %d" seed p load
             c.Types.rmax)
          true
          (load <= c.Types.rmax + !heaviest))
      loads
  done

let test_stream_max_iterations_validation () =
  let g, c = random_instance 0 in
  Alcotest.check_raises "max_iterations < 1"
    (Invalid_argument "Stream.partition: max_iterations < 1") (fun () ->
      ignore (Stream.partition ~max_iterations:0 g c))

let test_stream_converged_is_fixed_point () =
  (* Once a restream moves nothing, running with a larger budget must
     return the identical labelling (and stop at the same pass). *)
  let g, c = random_instance 7 in
  let p1, s1 = Stream.partition ~max_iterations:8 g c in
  let p2, s2 = Stream.partition ~max_iterations:16 g c in
  if s1.Stream.converged then begin
    check_parts "fixed point" p1 p2;
    check_int "same stopping pass" s1.Stream.iterations s2.Stream.iterations
  end

let test_stream_workspace_reuse () =
  (* The label bank alternates per acquisition, so the steady state is
     reached after two runs (both banks warm); from then on a run
     allocates nothing. *)
  let ws = Workspace.create () in
  let g, c = random_instance 11 in
  ignore (Stream.partition ~workspace:ws g c);
  ignore (Stream.partition ~workspace:ws g c);
  let warm = Workspace.words ws in
  ignore (Stream.partition ~workspace:ws g c);
  ignore (Stream.partition ~workspace:ws g c);
  check_int "warm runs allocate nothing" warm (Workspace.words ws)

(* --- Gp modes --- *)

let config_of mode =
  { Config.default with Config.mode; max_cycles = 4 }

let test_gp_stream_mode () =
  for seed = 0 to 4 do
    let g, c = Rand_graph.random_partitionable (rng seed) ~n:80 ~k:3 in
    let r = Gp.partition ~config:(config_of Config.Stream) g c in
    Types.check_partition ~n:(Wgraph.n_nodes g) ~k:c.Types.k r.Gp.part;
    check_int "no cycles" 0 r.Gp.cycles_used;
    check_int "no levels" 0 r.Gp.levels
  done

let test_gp_hybrid_never_worse_than_stream_seed () =
  (* Hybrid's history carries the streaming seed's goodness; the refiner
     commits strict improvements only, so the final goodness can never
     compare worse. *)
  for seed = 0 to 9 do
    let g, c = Rand_graph.random_partitionable (rng seed) ~n:100 ~k:4 in
    let r = Gp.partition ~config:(config_of Config.Hybrid) g c in
    Types.check_partition ~n:(Wgraph.n_nodes g) ~k:c.Types.k r.Gp.part;
    match r.Gp.history with
    | seed_gd :: _ ->
        (* First history entry is the streaming seed's goodness; a
           second appears only when the tabu rescue improved further. *)
        check_bool
          (Printf.sprintf "seed %d: refined <= streamed" seed)
          true
          (Metrics.compare_goodness r.Gp.goodness seed_gd <= 0)
    | [] -> Alcotest.failf "seed %d: empty hybrid history" seed
  done

let test_gp_modes_deterministic_across_jobs () =
  (* Stream and hybrid never touch the domain pool: the partition must be
     bit-identical at every pool width. *)
  List.iter
    (fun mode ->
      for seed = 0 to 2 do
        let g, c =
          Rand_graph.random_partitionable (rng (100 + seed)) ~n:90 ~k:3
        in
        let run width =
          Ppnpart_exec.Pool.with_width width (fun () ->
              Gp.partition ~config:(config_of mode) g c)
        in
        let r1 = run 1 and r4 = run 4 in
        check_parts
          (Printf.sprintf "%s seed %d: width 1 = width 4"
             (Config.mode_name mode) seed)
          r1.Gp.part r4.Gp.part
      done)
    [ Config.Stream; Config.Hybrid ]

let test_gp_stream_iterations_validation () =
  let g, c = random_instance 0 in
  Alcotest.check_raises "stream_iterations < 1"
    (Invalid_argument "Config: stream_iterations < 1") (fun () ->
      ignore
        (Gp.partition
           ~config:
             { (config_of Config.Stream) with Config.stream_iterations = 0 }
           g c))

(* Above 4096 nodes — the size at which the removed chunked restreamer
   used to take over — stream mode is the sequential streamer verbatim,
   and hybrid mode is that same seed after one serial boundary
   refinement (no tabu rescue at this size). *)
let test_gp_large_modes_are_sequential () =
  let r = rng 21 in
  let n = 9_000 + Random.State.int r 3_000 in
  let g = Rand_graph.gnm ~vw_range:(1, 7) ~ew_range:(1, 9) r ~n ~m:(3 * n) in
  let k = 8 in
  let c =
    Types.constraints ~k
      ~rmax:((Wgraph.total_node_weight g / k * 4 / 3) + 1)
      ~bmax:((Wgraph.total_edge_weight g / (2 * k)) + 1)
  in
  let cfg = { (config_of Config.Stream) with Config.seed = 3 } in
  let seed_part =
    fst (Stream.partition ~max_iterations:cfg.Config.stream_iterations g c)
  in
  let stream = Gp.partition ~config:cfg g c in
  check_parts "stream mode = Stream.partition" seed_part stream.Gp.part;
  let hybrid =
    Gp.partition ~config:{ cfg with Config.mode = Config.Hybrid } g c
  in
  let st = Part_state.init g c (Array.copy seed_part) in
  Refine_constrained.refine_state
    (Random.State.make [| cfg.Config.seed; 0x6770 |])
    st;
  check_parts "hybrid mode = refined stream seed" (Part_state.snapshot st)
    hybrid.Gp.part

(* --- scale smoke: the point of the whole exercise --- *)

let test_stream_scale_smoke () =
  (* A mid-size R-MAT instance streamed end to end; quick mode shrinks
     it. Checks validity and that restreaming monotonically calms down
     (move counts are non-increasing on this kind of instance is NOT
     guaranteed, so only validity and stats coherence are asserted). *)
  let scale, m = if quick then (12, 20_000) else (15, 150_000) in
  let g = Rand_graph.rmat (rng 5) ~scale ~m in
  let n = Wgraph.n_nodes g in
  let c = Types.constraints ~k:8 ~bmax:max_int ~rmax:((n / 8) + (n / 32)) in
  let part, stats = Stream.partition g c in
  Types.check_partition ~n ~k:8 part;
  check_bool "ran at least one pass" true (stats.Stream.iterations >= 1)

let () =
  Alcotest.run "stream"
    [
      ( "stream",
        [
          Alcotest.test_case "valid partition" `Quick
            test_stream_valid_partition;
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "cuts the bridge" `Quick test_stream_cuts_bridge;
          Alcotest.test_case "state words bound" `Quick
            test_stream_state_words;
          Alcotest.test_case "rmax under slack" `Quick
            test_stream_respects_rmax_under_slack;
          Alcotest.test_case "max_iterations validated" `Quick
            test_stream_max_iterations_validation;
          Alcotest.test_case "converged is fixed point" `Quick
            test_stream_converged_is_fixed_point;
          Alcotest.test_case "workspace reuse" `Quick
            test_stream_workspace_reuse;
        ] );
      ( "gp modes",
        [
          Alcotest.test_case "stream mode" `Quick test_gp_stream_mode;
          Alcotest.test_case "hybrid never worse than seed" `Quick
            test_gp_hybrid_never_worse_than_stream_seed;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_gp_modes_deterministic_across_jobs;
          Alcotest.test_case "stream_iterations validated" `Quick
            test_gp_stream_iterations_validation;
          Alcotest.test_case "large stream and hybrid = sequential oracle"
            `Quick test_gp_large_modes_are_sequential;
        ] );
      ( "scale",
        [ Alcotest.test_case "rmat smoke" `Slow test_stream_scale_smoke ] );
    ]
