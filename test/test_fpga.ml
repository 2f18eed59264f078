(* Tests for the multi-FPGA platform model and the cycle-level simulator,
   checked against the static makespan bound of the Analysis oracle. *)

module P = Ppnpart_ppn
open Ppnpart_fpga
module Analysis = Ppnpart_test_oracle.Analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let platform ?(n = 2) ?(rmax = 100_000) ?(bmax = 8) () =
  Platform.make ~n_fpgas:n ~rmax ~bmax ()

(* A 4-stage pipeline PPN with 64 tokens per channel. *)
let pipeline () =
  P.Derive.derive (P.Kernels.chain ~stages:4 ~tokens:64 ())

let run_ok ?fifo_capacity plat ppn assignment =
  match Sim.run ?fifo_capacity plat ppn ~assignment with
  | Ok r -> r
  | Error e -> Alcotest.failf "simulation error: %a" Sim.pp_error e

(* --- Platform / Mapping --- *)

let test_platform_validation () =
  Alcotest.check_raises "n_fpgas" (Invalid_argument "Platform.make: n_fpgas < 1")
    (fun () -> ignore (Platform.make ~n_fpgas:0 ~rmax:1 ~bmax:1 ()));
  let p = platform () in
  let c = Platform.constraints p in
  check_int "k" 2 c.Ppnpart_partition.Types.k;
  check_int "bmax" 8 c.Ppnpart_partition.Types.bmax

let test_mapping_resources_and_traffic () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let plat = platform () in
  let split = Array.init n (fun i -> if i < n / 2 then 0 else 1) in
  let m = Mapping.of_partition plat ppn split in
  let res = Mapping.fpga_resources m in
  check_int "all resources accounted"
    (P.Ppn.total_resources ppn)
    (res.(0) + res.(1));
  let traffic = Mapping.link_traffic m in
  check_bool "some cross traffic" true (traffic.(0).(1) > 0);
  check_int "symmetric" traffic.(0).(1) traffic.(1).(0)

let test_mapping_violations () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let tiny = Platform.make ~n_fpgas:2 ~rmax:10 ~bmax:1 () in
  let split = Array.init n (fun i -> if i < n / 2 then 0 else 1) in
  let m = Mapping.of_partition tiny ppn split in
  check_bool "infeasible" false (Mapping.is_feasible m);
  let has_res, has_bw =
    List.fold_left
      (fun (r, b) v ->
        match v with
        | Mapping.Resource_overflow _ -> (true, b)
        | Mapping.Bandwidth_overflow _ -> (r, true))
      (false, false) (Mapping.violations m)
  in
  check_bool "resource violation reported" true has_res;
  check_bool "bandwidth violation reported" true has_bw

let test_mapping_bad_assignment () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  Alcotest.check_raises "range"
    (Invalid_argument "Mapping.make: FPGA id out of range") (fun () ->
      ignore (Mapping.make (platform ()) ppn (Array.make n 5)))

(* --- Sim: functional correctness --- *)

let test_sim_completes_all_firings () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let r = run_ok (platform ()) ppn (Array.make n 0) in
  let expected =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + (P.Ppn.process ppn i).P.Process.iterations
    done;
    !acc
  in
  check_int "all firings happen" expected r.Sim.total_firings;
  check_bool "took at least max iterations cycles" true
    (r.Sim.cycles >= 64)

let test_sim_single_fpga_no_link_traffic () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let r = run_ok (platform ()) ppn (Array.make n 0) in
  check_int "no data moved" 0 r.Sim.data_moved.(0).(1);
  check_int "no backlog" 0 r.Sim.peak_link_queue

let test_sim_cross_traffic_counted () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let split = Array.init n (fun i -> if i < n / 2 then 0 else 1) in
  let m = Mapping.of_partition (platform ()) ppn split in
  let static = (Mapping.link_traffic m).(0).(1) in
  let r = run_ok (platform ()) ppn split in
  check_int "simulated data = static volume" static r.Sim.data_moved.(0).(1)

let test_sim_deterministic () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let split = Array.init n (fun i -> i mod 2) in
  let a = run_ok (platform ()) ppn split in
  let b = run_ok (platform ()) ppn split in
  check_int "same cycles" a.Sim.cycles b.Sim.cycles

(* --- Sim: the paper's motivation, measured --- *)

let test_sim_bandwidth_throttles () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  (* Alternating assignment maximizes cross traffic. *)
  let bad = Array.init n (fun i -> i mod 2) in
  let narrow = run_ok (platform ~bmax:1 ()) ppn bad in
  let wide = run_ok (platform ~bmax:64 ()) ppn bad in
  check_bool "narrow link is slower" true
    (narrow.Sim.cycles > wide.Sim.cycles);
  check_bool "backlog builds up" true
    (narrow.Sim.peak_link_queue > wide.Sim.peak_link_queue)

let test_sim_good_mapping_beats_bad () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let plat = platform ~bmax:2 () in
  let good = Array.init n (fun i -> if i < n / 2 then 0 else 1) in
  let bad = Array.init n (fun i -> i mod 2) in
  let rg = run_ok plat ppn good in
  let rb = run_ok plat ppn bad in
  check_bool "fewer cycles on the feasible-style mapping" true
    (rg.Sim.cycles < rb.Sim.cycles);
  check_bool "higher throughput" true
    (Sim.throughput rg > Sim.throughput rb)

let test_sim_monotone_in_bandwidth () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let bad = Array.init n (fun i -> i mod 2) in
  let cycles_at bmax = (run_ok (platform ~bmax ()) ppn bad).Sim.cycles in
  let prev = ref max_int in
  List.iter
    (fun bmax ->
      let c = cycles_at bmax in
      check_bool "wider link never slower" true (c <= !prev);
      prev := c)
    [ 1; 2; 4; 8; 16; 32 ]

let test_sim_fifo_capacity_limits () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let all0 = Array.make n 0 in
  let small = run_ok ~fifo_capacity:2 (platform ()) ppn all0 in
  let large = run_ok ~fifo_capacity:256 (platform ()) ppn all0 in
  check_bool "completes under tiny FIFOs" true (small.Sim.total_firings > 0);
  check_bool "tiny FIFOs never faster" true
    (small.Sim.cycles >= large.Sim.cycles)

let test_sim_cycle_limit () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  match
    Sim.run ~max_cycles:3 (platform ()) ppn ~assignment:(Array.make n 0)
  with
  | Error (Sim.Cycle_limit _) -> ()
  | Ok _ -> Alcotest.fail "expected cycle limit"
  | Error e -> Alcotest.failf "unexpected error: %a" Sim.pp_error e

let test_sim_share_arithmetic () =
  (* A 2-process PPN with unequal iteration counts: producer 10 firings,
     consumer 5, channel 10 tokens -> consumer takes 2 per firing. Token
     conservation must hold regardless. *)
  let procs =
    [|
      P.Process.make ~id:0 ~name:"p" ~iterations:10 ~work:1 ~resources:1;
      P.Process.make ~id:1 ~name:"c" ~iterations:5 ~work:1 ~resources:1;
    |]
  in
  let ppn = P.Ppn.make procs [ P.Channel.make ~src:0 ~dst:1 10 ] in
  let r = run_ok (platform ()) ppn [| 0; 1 |] in
  check_int "15 firings" 15 r.Sim.total_firings;
  check_int "10 tokens moved" 10 r.Sim.data_moved.(0).(1)

let test_sim_channel_peaks_bounded () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let capacity = 8 in
  let r =
    run_ok ~fifo_capacity:capacity (platform ()) ppn
      (Array.init n (fun i -> i mod 2))
  in
  check_int "every channel reported" (List.length (P.Ppn.channels ppn))
    (List.length r.Sim.channel_peaks);
  List.iter
    (fun ((c : P.Channel.t), peak) ->
      check_bool "peak within capacity" true (peak <= capacity);
      if c.P.Channel.tokens > 0 then
        check_bool "active channel has a peak" true (peak > 0))
    r.Sim.channel_peaks

let test_sim_process_spans () =
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let r = run_ok (platform ()) ppn (Array.make n 0) in
  (* every process fires 64 times on an unconstrained platform, so each
     span covers at least 64 cycles and the pipeline fills in order *)
  Array.iteri
    (fun p (first, last) ->
      let iters = (P.Ppn.process ppn p).P.Process.iterations in
      check_bool "span long enough" true (last - first + 1 >= iters);
      check_bool "within makespan" true (last <= r.Sim.cycles))
    r.Sim.process_spans;
  (* the chain fills front to back: stage s starts no earlier than its
     producer (stmt processes are ids 0..3 in chain order) *)
  for p = 1 to 3 do
    check_bool "producer starts first" true
      (fst r.Sim.process_spans.(p - 1) <= fst r.Sim.process_spans.(p))
  done

let test_ppn_to_dot () =
  let ppn = pipeline () in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
    loop 0
  in
  let plain = P.Ppn.to_dot ppn in
  check_bool "digraph" true (contains plain "digraph ppn");
  check_bool "process name" true (contains plain "stage0");
  let n = P.Ppn.n_processes ppn in
  let clustered =
    P.Ppn.to_dot ~assignment:(Array.init n (fun i -> i mod 2)) ppn
  in
  check_bool "clusters" true (contains clustered "cluster_1")

(* --- Analysis --- *)

let test_analysis_depth_chain () =
  let ppn = pipeline () in
  (* src -> 4 stages -> snk = 6 hops *)
  check_int "depth" 6 (Analysis.depth ppn)

let test_analysis_bound_exact_on_chain () =
  (* Unthrottled chain: simulated cycles hit the bound exactly. *)
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let plat = platform ~bmax:1024 () in
  let all0 = Array.make n 0 in
  let r = run_ok plat ppn all0 in
  check_int "bound met exactly"
    (Analysis.makespan_lower_bound plat ppn ~assignment:all0)
    r.Sim.cycles;
  check_bool "efficiency 1.0" true
    (abs_float (Analysis.efficiency plat ppn ~assignment:all0 r -. 1.0)
    < 1e-9)

let test_analysis_link_bound_binds () =
  (* With a 1-unit link and an alternating mapping, the link demand
     dominates the bound. *)
  let ppn = pipeline () in
  let n = P.Ppn.n_processes ppn in
  let plat = platform ~bmax:1 () in
  let bad = Array.init n (fun i -> i mod 2) in
  let m = Mapping.of_partition plat ppn bad in
  let traffic = (Mapping.link_traffic m).(0).(1) in
  check_bool "link demand in bound" true
    (Analysis.makespan_lower_bound plat ppn ~assignment:bad >= traffic)

let test_analysis_rejects_cyclic () =
  let mk id = P.Process.make ~id ~name:(string_of_int id) ~iterations:1
      ~work:1 ~resources:1 in
  let cyclic =
    P.Ppn.make [| mk 0; mk 1 |]
      [ P.Channel.make ~src:0 ~dst:1 1; P.Channel.make ~src:1 ~dst:0 1 ]
  in
  Alcotest.check_raises "cyclic"
    (Invalid_argument "Analysis: cyclic process network") (fun () ->
      ignore (Analysis.depth cyclic))

let prop_sim_never_beats_bound =
  QCheck2.Test.make ~name:"sim cycles >= static lower bound" ~count:30
    QCheck2.Gen.(triple (int_range 0 8) (int_range 1 8) (int_range 2 4))
    (fun (kernel_idx, bmax, k) ->
      let _, stmts = List.nth P.Kernels.all (kernel_idx mod 9) in
      let ppn = P.Derive.derive stmts in
      let n = P.Ppn.n_processes ppn in
      let assignment = Array.init n (fun i -> i mod k) in
      let plat = Platform.make ~n_fpgas:k ~rmax:1_000_000 ~bmax () in
      match Sim.run ~fifo_capacity:256 plat ppn ~assignment with
      | Ok r ->
        r.Sim.cycles >= Analysis.makespan_lower_bound plat ppn ~assignment
      | Error _ -> false)

(* --- properties --- *)

let prop_sim_kernels_complete =
  QCheck2.Test.make ~name:"every kernel completes on 2 FPGAs" ~count:12
    QCheck2.Gen.(pair (int_range 0 8) (int_range 1 16))
    (fun (kernel_idx, bmax) ->
      let _, stmts = List.nth P.Kernels.all (kernel_idx mod 9) in
      let ppn = P.Derive.derive stmts in
      let n = P.Ppn.n_processes ppn in
      let assignment = Array.init n (fun i -> i mod 2) in
      match
        Sim.run ~fifo_capacity:256
          (Platform.make ~n_fpgas:2 ~rmax:1_000_000 ~bmax ())
          ppn ~assignment
      with
      | Ok r ->
        (* token conservation: all channel volume crossed the link *)
        let m =
          Mapping.of_partition
            (Platform.make ~n_fpgas:2 ~rmax:1_000_000 ~bmax ())
            ppn assignment
        in
        r.Sim.data_moved.(0).(1) = (Mapping.link_traffic m).(0).(1)
      | Error _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sim_kernels_complete; prop_sim_never_beats_bound ]

let () =
  Alcotest.run "fpga"
    [
      ( "platform_mapping",
        [
          Alcotest.test_case "platform validation" `Quick
            test_platform_validation;
          Alcotest.test_case "resources and traffic" `Quick
            test_mapping_resources_and_traffic;
          Alcotest.test_case "violations" `Quick test_mapping_violations;
          Alcotest.test_case "bad assignment" `Quick
            test_mapping_bad_assignment;
        ] );
      ( "sim_correctness",
        [
          Alcotest.test_case "completes all firings" `Quick
            test_sim_completes_all_firings;
          Alcotest.test_case "single fpga no link traffic" `Quick
            test_sim_single_fpga_no_link_traffic;
          Alcotest.test_case "cross traffic counted" `Quick
            test_sim_cross_traffic_counted;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "share arithmetic" `Quick
            test_sim_share_arithmetic;
          Alcotest.test_case "cycle limit" `Quick test_sim_cycle_limit;
        ] );
      ( "sim_bandwidth",
        [
          Alcotest.test_case "narrow link throttles" `Quick
            test_sim_bandwidth_throttles;
          Alcotest.test_case "good mapping beats bad" `Quick
            test_sim_good_mapping_beats_bad;
          Alcotest.test_case "monotone in bandwidth" `Quick
            test_sim_monotone_in_bandwidth;
          Alcotest.test_case "fifo capacity" `Quick
            test_sim_fifo_capacity_limits;
          Alcotest.test_case "channel peaks" `Quick
            test_sim_channel_peaks_bounded;
          Alcotest.test_case "process spans" `Quick test_sim_process_spans;
          Alcotest.test_case "ppn to_dot" `Quick test_ppn_to_dot;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "depth of chain" `Quick
            test_analysis_depth_chain;
          Alcotest.test_case "bound exact on chain" `Quick
            test_analysis_bound_exact_on_chain;
          Alcotest.test_case "link bound binds" `Quick
            test_analysis_link_bound_binds;
          Alcotest.test_case "rejects cyclic" `Quick
            test_analysis_rejects_cyclic;
        ] );
      ("properties", qcheck_cases);
    ]
