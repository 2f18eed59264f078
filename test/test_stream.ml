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
  { Config.default with Config.mode; jobs = 1; max_cycles = 4 }

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
     bit-identical for every job count. *)
  List.iter
    (fun mode ->
      for seed = 0 to 2 do
        let g, c =
          Rand_graph.random_partitionable (rng (100 + seed)) ~n:90 ~k:3
        in
        let r1 =
          Gp.partition ~config:{ (config_of mode) with Config.jobs = 1 } g c
        in
        let r4 =
          Gp.partition ~config:{ (config_of mode) with Config.jobs = 4 } g c
        in
        check_parts
          (Printf.sprintf "%s seed %d: jobs 1 = jobs 4"
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

(* --- Stream_parallel: chunked restreaming (DESIGN.md §6.9) --- *)

module Team = Ppnpart_exec.Team

let with_team w f =
  let team = Team.create ~width:w in
  Fun.protect ~finally:(fun () -> Team.shutdown team) (fun () -> f team)

(* Big enough that the default chunk size (4096) yields several chunks,
   so the frozen-state merge path actually runs. *)
let chunked_instance seed =
  let r = rng seed in
  let n = 9_000 + Random.State.int r 3_000 in
  let g = Rand_graph.gnm ~vw_range:(1, 7) ~ew_range:(1, 9) r ~n ~m:(3 * n) in
  let k = 8 in
  let c =
    {
      Types.k;
      rmax = (Wgraph.total_node_weight g / k * 4 / 3) + 1;
      bmax = (Wgraph.total_edge_weight g / (2 * k)) + 1;
    }
  in
  (g, c)

let test_chunked_width_determinism () =
  (* The house contract: chunk boundaries and commit order depend on
     node index alone, so the labelling is bit-identical across team
     widths (including no team at all) and across restarts on a warm
     workspace. *)
  let ws = Workspace.create () in
  let g, c = chunked_instance 21 in
  let base, st_base = Stream_parallel.partition ~workspace:ws g c in
  let base = Array.copy base in
  List.iter
    (fun w ->
      let p, st =
        with_team w (fun team ->
            let p, st = Stream_parallel.partition ~workspace:ws ~team g c in
            (Array.copy p, st))
      in
      check_parts (Printf.sprintf "width %d = no team" w) base p;
      check_bool
        (Printf.sprintf "width %d: same stats" w)
        true
        (st.Stream.moved = st_base.Stream.moved
        && st.Stream.converged = st_base.Stream.converged
        && st.Stream.iterations = st_base.Stream.iterations))
    [ 1; 2; 4; 8 ];
  let restart, _ = Stream_parallel.partition ~workspace:ws g c in
  check_parts "restart identical" base (Array.copy restart);
  let fresh, _ = Stream_parallel.partition g c in
  check_parts "fresh-workspace restart identical" base fresh

let test_chunked_oracle_at_one_chunk () =
  (* With n <= chunk_size the whole input is one chunk, whose visibility
     rule degenerates to the sequential pass: Stream_parallel must fall
     back to (and bit-match) the sequential oracle. *)
  for seed = 0 to 9 do
    let g, c = random_instance seed in
    let seq, s_seq = Stream.partition g c in
    let par, s_par = Stream_parallel.partition g c in
    check_parts (Printf.sprintf "seed %d: one chunk = oracle" seed) seq par;
    check_int
      (Printf.sprintf "seed %d: same iterations" seed)
      s_seq.Stream.iterations s_par.Stream.iterations;
    (* Explicit chunk_size >= n behaves the same as the default. *)
    let par2, _ =
      Stream_parallel.partition ~chunk_size:(Wgraph.n_nodes g) g c
    in
    check_parts (Printf.sprintf "seed %d: chunk_size = n" seed) seq par2
  done

let test_chunked_boundary_cases () =
  (* Chunk sizes that tile n exactly, leave a short tail, or degenerate
     to one node per chunk must all be valid and width-deterministic. *)
  let r = rng 33 in
  let g = Rand_graph.gnm ~vw_range:(1, 3) ~ew_range:(1, 4) r ~n:50 ~m:120 in
  let c =
    { Types.k = 4; rmax = (Wgraph.total_node_weight g / 3) + 1; bmax = max_int }
  in
  List.iter
    (fun cs ->
      let p1 = fst (Stream_parallel.partition ~chunk_size:cs g c) in
      Types.check_partition ~n:50 ~k:4 p1;
      let p3 =
        with_team 3 (fun team ->
            Array.copy
              (fst (Stream_parallel.partition ~chunk_size:cs ~team g c)))
      in
      check_parts (Printf.sprintf "chunk_size %d: width 3 = width 1" cs) p1 p3)
    [ 1; 2; 7; 25; 49; 50 ]

let test_chunked_validation () =
  let g, c = random_instance 0 in
  Alcotest.check_raises "chunk_size < 1"
    (Invalid_argument "Stream_parallel.partition: chunk_size < 1") (fun () ->
      ignore (Stream_parallel.partition ~chunk_size:0 g c));
  Alcotest.check_raises "max_iterations < 1"
    (Invalid_argument "Stream_parallel.partition: max_iterations < 1")
    (fun () -> ignore (Stream_parallel.partition ~max_iterations:0 g c))

let test_chunked_workspace_reuse () =
  (* Like the sequential streamer, two warm-up runs fill both label
     banks plus the chunked scratch; thereafter a run allocates nothing
     in the workspace. *)
  let ws = Workspace.create () in
  let g, c = chunked_instance 5 in
  ignore (Stream_parallel.partition ~workspace:ws g c);
  ignore (Stream_parallel.partition ~workspace:ws g c);
  let warm = Workspace.words ws in
  ignore (Stream_parallel.partition ~workspace:ws g c);
  ignore (Stream_parallel.partition ~workspace:ws g c);
  check_int "warm runs allocate nothing" warm (Workspace.words ws)

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
        ] );
      ( "chunked",
        [
          Alcotest.test_case "width determinism" `Quick
            test_chunked_width_determinism;
          Alcotest.test_case "oracle at one chunk" `Quick
            test_chunked_oracle_at_one_chunk;
          Alcotest.test_case "chunk boundary cases" `Quick
            test_chunked_boundary_cases;
          Alcotest.test_case "parameters validated" `Quick
            test_chunked_validation;
          Alcotest.test_case "workspace reuse" `Quick
            test_chunked_workspace_reuse;
        ] );
      ( "scale",
        [ Alcotest.test_case "rmat smoke" `Slow test_stream_scale_smoke ] );
    ]
