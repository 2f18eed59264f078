(* Tests for the reference interpreter and the operational dataflow
   validation of the dependence analysis. *)

open Ppnpart_poly
open Ppnpart_test_oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let idx d j c = Affine.add_const (Affine.var d j) c
let acc1 name e = Access.make name [| e |]

(* The generic semantics used when only structure matters. *)
let sum_plus_1 _point reads = List.fold_left ( + ) 1 reads

(* y[i] = x[i] * 2 over i < n, then z[i] = y[i] + 3. *)
let double_then_add n =
  let d = Domain.box [| (0, n - 1) |] in
  let i = idx 1 0 0 in
  let s0 =
    Stmt.make ~reads:[ acc1 "x" i ] ~writes:[ acc1 "y" i ] "double" d
  in
  let s1 = Stmt.make ~reads:[ acc1 "y" i ] ~writes:[ acc1 "z" i ] "add" d in
  [
    (s0, fun _ reads -> List.hd reads * 2);
    (s1, fun _ reads -> List.hd reads + 3);
  ]

let test_interp_pipeline_values () =
  let input array element =
    match array with "x" -> element.(0) * 10 | _ -> 0
  in
  let env = Interp.run ~input (double_then_add 5) in
  check_int "y[2] = 40" 40 (Option.get (Interp.lookup env "y" [| 2 |]));
  check_int "z[4] = 83" 83 (Option.get (Interp.lookup env "z" [| 4 |]));
  check_bool "x never stored" true (Interp.lookup env "x" [| 0 |] = None)

let test_interp_last_write_wins () =
  let d = Domain.box [| (0, 3) |] in
  let i = idx 1 0 0 in
  let w1 = Stmt.make ~writes:[ acc1 "a" i ] "w1" d in
  let w2 = Stmt.make ~writes:[ acc1 "a" i ] "w2" d in
  let env =
    Interp.run [ (w1, fun _ _ -> 1); (w2, fun _ _ -> 2) ]
  in
  check_int "second writer wins" 2 (Option.get (Interp.lookup env "a" [| 1 |]))

let test_interp_array_of_sorted () =
  let env = Interp.run ~input:(fun _ _ -> 0) (double_then_add 3) in
  let ys = Interp.array_of env "y" in
  check_int "3 elements" 3 (List.length ys);
  check_bool "sorted" true
    (List.map (fun (e, _) -> e.(0)) ys = [ 0; 1; 2 ])

let test_interp_equal_env () =
  let a = Interp.run (double_then_add 4) in
  let b = Interp.run (double_then_add 4) in
  check_bool "equal" true (Interp.equal_env a b);
  let c = Interp.run (double_then_add 5) in
  check_bool "different sizes differ" false (Interp.equal_env a c)

let test_interp_default_input_deterministic () =
  check_int "stable" (Interp.default_input "x" [| 3; 4 |])
    (Interp.default_input "x" [| 3; 4 |]);
  check_bool "array name matters" true
    (Interp.default_input "x" [| 1 |] <> Interp.default_input "y" [| 1 |])

(* --- Dataflow_check --- *)

let with_sum stmts = List.map (fun s -> (s, sum_plus_1)) stmts

let test_dataflow_verifies_pipeline () =
  check_bool "pipeline verifies" true
    (Dataflow_check.verify (double_then_add 8))

let test_dataflow_verifies_all_kernels () =
  List.iter
    (fun (name, stmts) ->
      check_bool (name ^ " verifies") true
        (Dataflow_check.verify (with_sum stmts)))
    Ppnpart_ppn.Kernels.all

let test_dataflow_counts_match_flows () =
  let program = with_sum (Ppnpart_ppn.Kernels.fir ~taps:4 ~samples:16 ()) in
  let r = Dataflow_check.run program in
  let flows = Dependence.flow_edges (List.map fst program) in
  check_int "channel count matches" (List.length flows)
    (List.length r.Dataflow_check.consumed);
  List.iter2
    (fun (f : Dependence.flow) (c : Dataflow_check.channel_count) ->
      check_int "tokens agree" f.Dependence.tokens c.Dataflow_check.tokens)
    flows r.Dataflow_check.consumed

let test_dataflow_detects_order_violation () =
  (* Reader before writer in program order: the attribution (last writer)
     points forward, which the dataflow execution must flag. *)
  let d = Domain.box [| (0, 3) |] in
  let i = idx 1 0 0 in
  let reader =
    Stmt.make ~reads:[ acc1 "a" i ] ~writes:[ acc1 "b" i ] "reader" d
  in
  let writer = Stmt.make ~writes:[ acc1 "a" i ] "writer" d in
  let program = with_sum [ reader; writer ] in
  let r = Dataflow_check.run program in
  check_bool "violation flagged" true (r.Dataflow_check.order_violations <> []);
  check_bool "verify fails" false (Dataflow_check.verify program)

let test_dataflow_intra_process_ok () =
  (* a[i] = a[i-1] + 1: pure intra-process dependence, forward in the
     lexicographic sweep: no violation, no channel. *)
  let d = Domain.box [| (1, 6) |] in
  let s =
    Stmt.make
      ~reads:[ acc1 "a" (idx 1 0 (-1)) ]
      ~writes:[ acc1 "a" (idx 1 0 0) ]
      "scan" d
  in
  let r = Dataflow_check.run [ (s, sum_plus_1) ] in
  check_bool "no violations" true (r.Dataflow_check.order_violations = []);
  check_int "no channels" 0 (List.length r.Dataflow_check.consumed)

let test_dataflow_matmul_bands () =
  check_bool "split matmul verifies" true
    (Dataflow_check.verify
       (with_sum (Ppnpart_ppn.Kernels.matmul ~blocks:3 ~n:6 ())))

let prop_chain_always_verifies =
  QCheck2.Test.make ~name:"chains of any shape verify" ~count:30
    QCheck2.Gen.(pair (int_range 1 6) (int_range 1 40))
    (fun (stages, tokens) ->
      Dataflow_check.verify
        (with_sum (Ppnpart_ppn.Kernels.chain ~stages ~tokens ())))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_chain_always_verifies ]

let () =
  Alcotest.run "interp"
    [
      ( "interp",
        [
          Alcotest.test_case "pipeline values" `Quick
            test_interp_pipeline_values;
          Alcotest.test_case "last write wins" `Quick
            test_interp_last_write_wins;
          Alcotest.test_case "array_of sorted" `Quick
            test_interp_array_of_sorted;
          Alcotest.test_case "equal_env" `Quick test_interp_equal_env;
          Alcotest.test_case "default input" `Quick
            test_interp_default_input_deterministic;
        ] );
      ( "dataflow_check",
        [
          Alcotest.test_case "pipeline verifies" `Quick
            test_dataflow_verifies_pipeline;
          Alcotest.test_case "all kernels verify" `Quick
            test_dataflow_verifies_all_kernels;
          Alcotest.test_case "counts match flows" `Quick
            test_dataflow_counts_match_flows;
          Alcotest.test_case "order violation detected" `Quick
            test_dataflow_detects_order_violation;
          Alcotest.test_case "intra-process scan ok" `Quick
            test_dataflow_intra_process_ok;
          Alcotest.test_case "matmul bands verify" `Quick
            test_dataflow_matmul_bands;
        ] );
      ("properties", qcheck_cases);
    ]
