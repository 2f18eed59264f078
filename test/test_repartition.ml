(* Incremental repartitioning (Gp.repartition, DESIGN.md §6.7) and the
   degenerate-input dispatch sweep: n = 0, k = 1, n <= k and zero-edge
   graphs must give the same answer under every --mode. *)

open Ppnpart_graph
open Ppnpart_partition
module Config = Ppnpart_core.Config
module Gp = Ppnpart_core.Gp
module Rand_graph = Ppnpart_workloads.Rand_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_parts msg a b = Alcotest.(check (array int)) msg a b
let quick = Sys.getenv_opt "PPNPART_QUICK" <> None
let rng seed = Random.State.make [| seed; 0x7270 |]

let modes =
  [ ("multilevel", Config.Multilevel); ("stream", Config.Stream);
    ("hybrid", Config.Hybrid) ]

let run_mode mode g c =
  Gp.partition ~config:{ Config.default with Config.mode } g c

(* --- degenerate dispatch: all three modes agree --- *)

let degenerate_cases () =
  let zero_edge n =
    Wgraph.of_edges ~vwgt:(Array.init n (fun i -> 1 + (i mod 3))) n []
  in
  let path n =
    Wgraph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1, 1 + (i mod 2))))
  in
  [ ("n=0", Wgraph.of_edges 0 [], Types.unconstrained ~k:3);
    ("n=1", Wgraph.of_edges 1 [], Types.unconstrained ~k:2);
    ("k=1", path 8, Types.unconstrained ~k:1);
    ("k=1 constrained", path 8, Types.constraints ~k:1 ~bmax:3 ~rmax:100);
    (* n <= k with k beyond exhaustive_limit: the class PR 3 fixed for
       multilevel, which stream/hybrid previously sent to the streaming
       placer. *)
    ("n<=k small", path 4, Types.unconstrained ~k:4);
    ("n<=k large k", path 8, Types.unconstrained ~k:20);
    ("zero-edge", zero_edge 7, Types.unconstrained ~k:3);
    ("zero-edge constrained", zero_edge 9,
     Types.constraints ~k:4 ~bmax:max_int ~rmax:5) ]

let test_degenerate_modes_agree () =
  List.iter
    (fun (name, g, c) ->
      let reference = run_mode Config.Multilevel g c in
      Types.check_partition ~n:(Wgraph.n_nodes g) ~k:c.Types.k
        reference.Gp.part;
      List.iter
        (fun (mode_name, mode) ->
          let r = run_mode mode g c in
          check_parts
            (Printf.sprintf "%s: %s agrees with multilevel" name mode_name)
            reference.Gp.part r.Gp.part;
          check_bool
            (Printf.sprintf "%s: %s same feasibility" name mode_name)
            reference.Gp.feasible r.Gp.feasible)
        modes)
    (degenerate_cases ())

let test_degenerate_zero_edge_spreads () =
  (* A zero-edge graph under an rmax bound must still balance: the old
     stream dispatch dumped everything where affinity = 0 broke ties. *)
  let g = Wgraph.of_edges ~vwgt:(Array.make 8 2) 8 [] in
  let c = Types.constraints ~k:4 ~bmax:max_int ~rmax:4 in
  List.iter
    (fun (mode_name, mode) ->
      let r = run_mode mode g c in
      check_bool (mode_name ^ ": zero-edge feasible") true r.Gp.feasible;
      check_int
        (mode_name ^ ": zero-edge violation")
        0 r.Gp.goodness.Metrics.violation)
    modes

(* --- Gp.repartition --- *)

let random_instance seed =
  let r = rng seed in
  let n = 40 + Random.State.int r 80 in
  let k = 2 + Random.State.int r 4 in
  Rand_graph.random_partitionable r ~n ~k

let random_ops r g =
  let n = Wgraph.n_nodes g in
  let live = Array.make (n + 8) true in
  let alive_nodes () =
    List.filter (fun u -> live.(u)) (List.init n (fun u -> u))
  in
  let pick_alive () =
    let xs = alive_nodes () in
    List.nth xs (Random.State.int r (List.length xs))
  in
  let n_ops = 1 + Random.State.int r 4 in
  let rec build acc i =
    if i = n_ops then List.rev acc
    else
      match Random.State.int r 4 with
      | 0 ->
        let u = pick_alive () and v = pick_alive () in
        if u <> v then
          build (Graph_edit.Add_edge (u, v, 1 + Random.State.int r 5) :: acc)
            (i + 1)
        else build acc i
      | 1 ->
        let u = pick_alive () in
        build
          (Graph_edit.Set_node_weight (u, 1 + Random.State.int r 9) :: acc)
          (i + 1)
      | 2 ->
        let u = pick_alive () in
        let w = 1 + Random.State.int r 4 in
        build
          (Graph_edit.Add_node { weight = w; neighbors = [ (u, 1) ] } :: acc)
          (i + 1)
      | _ ->
        let u = pick_alive () in
        if List.length (alive_nodes ()) > 8 then begin
          live.(u) <- false;
          build (Graph_edit.Remove_node u :: acc) (i + 1)
        end
        else build acc i
  in
  (* Add_edge between already-adjacent nodes is Invalid_edit; filter by
     trying the batch and dropping a failing prefix op. Simpler: only
     keep batches that apply cleanly. *)
  build [] 0

let rec ops_that_apply r g =
  let ops = random_ops r g in
  match Graph_edit.apply g ops with
  | _ -> ops
  | exception Graph_edit.Invalid_edit _ -> ops_that_apply r g

let test_repartition_valid_and_incremental () =
  let ws = Workspace.create () in
  let seeds = if quick then 8 else 20 in
  let incremental = ref 0 in
  for seed = 0 to seeds - 1 do
    let g, c = random_instance seed in
    let prev = (Gp.partition g c).Gp.part in
    let ops = ops_that_apply (rng (1000 + seed)) g in
    let rp = Gp.repartition ~workspace:ws ~prev g c ops in
    Types.check_partition
      ~n:(Wgraph.n_nodes rp.Gp.rp_graph)
      ~k:c.Types.k rp.Gp.rp_result.Gp.part;
    check_int
      (Printf.sprintf "seed %d: node_map length" seed)
      (Wgraph.n_nodes rp.Gp.rp_graph)
      (Array.length rp.Gp.rp_node_map);
    if rp.Gp.rp_incremental then begin
      incr incremental;
      (* Never worse than the projected-and-seeded labelling it started
         from (the head of the history trace). *)
      match rp.Gp.rp_result.Gp.history with
      | seed_gd :: _ ->
        check_bool
          (Printf.sprintf "seed %d: never worse than seed" seed)
          true
          (Metrics.compare_goodness rp.Gp.rp_result.Gp.goodness seed_gd <= 0)
      | [] -> Alcotest.fail "incremental result lost its history"
    end
  done;
  check_bool "small edits mostly stay incremental" true (!incremental > 0)

let test_repartition_empty_batch () =
  let g, c = random_instance 3 in
  let prev = (Gp.partition g c).Gp.part in
  let rp = Gp.repartition ~prev g c [] in
  check_int "no nodes seeded" 0 rp.Gp.rp_seeded;
  check_bool "incremental" true rp.Gp.rp_incremental;
  check_bool "no worse than prev" true
    (Metrics.compare_goodness rp.Gp.rp_result.Gp.goodness
       (Metrics.goodness g c prev)
    <= 0)

let test_repartition_deterministic () =
  let ws = Workspace.create () in
  let seeds = if quick then 5 else 12 in
  for seed = 0 to seeds - 1 do
    let g, c = random_instance seed in
    let prev = (Gp.partition g c).Gp.part in
    let ops = ops_that_apply (rng (2000 + seed)) g in
    let run ~width ~workspace () =
      Ppnpart_exec.Pool.with_width width (fun () ->
          (Gp.repartition ?workspace ~prev g c ops).Gp.rp_result.Gp.part)
    in
    let a = run ~width:1 ~workspace:(Some ws) () in
    let b = run ~width:4 ~workspace:None () in
    let c' = run ~width:1 ~workspace:(Some ws) () in
    check_parts (Printf.sprintf "seed %d: width 1 = width 4" seed) a b;
    check_parts (Printf.sprintf "seed %d: rerun identical" seed) a c'
  done

let test_repartition_gate_forces_scratch () =
  let g, c = random_instance 7 in
  let prev = (Gp.partition g c).Gp.part in
  let ops = [ Graph_edit.Set_node_weight (0, 3) ] in
  let config = { Config.default with Config.repartition_gate = 0.0 } in
  let rp = Gp.repartition ~config ~prev g c ops in
  check_bool "gate 0 forces the full pipeline" false rp.Gp.rp_incremental;
  check_parts "scratch fallback = plain run"
    (Gp.partition ~config rp.Gp.rp_graph c).Gp.part rp.Gp.rp_result.Gp.part

let test_repartition_degenerate_edits () =
  (* Editing down into a degenerate class must route through the
     canonical dispatch, not the seeded refiner. *)
  let g = Wgraph.of_edges 4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1) ] in
  let c = Types.unconstrained ~k:2 in
  let prev = (Gp.partition g c).Gp.part in
  let rp =
    Gp.repartition ~prev g c
      [ Graph_edit.Remove_node 0; Graph_edit.Remove_node 1;
        Graph_edit.Remove_node 2 ]
  in
  check_bool "n'=1 goes scratch" false rp.Gp.rp_incremental;
  check_int "single survivor" 1 (Wgraph.n_nodes rp.Gp.rp_graph);
  Types.check_partition ~n:1 ~k:2 rp.Gp.rp_result.Gp.part;
  (* And an edit that empties the graph entirely. *)
  let g1 = Wgraph.of_edges 1 [] in
  let rp0 =
    Gp.repartition ~prev:[| 0 |] g1 c [ Graph_edit.Remove_node 0 ]
  in
  check_int "empty graph, empty labelling" 0
    (Array.length rp0.Gp.rp_result.Gp.part)

let test_repartition_rejects_bad_prev () =
  let g, c = random_instance 5 in
  let bad_len = Array.make (Wgraph.n_nodes g + 1) 0 in
  (try
     ignore (Gp.repartition ~prev:bad_len g c []);
     Alcotest.fail "wrong-length prev accepted"
   with Invalid_argument _ -> ());
  let bad_label = Array.make (Wgraph.n_nodes g) c.Types.k in
  try
    ignore (Gp.repartition ~prev:bad_label g c []);
    Alcotest.fail "out-of-range prev accepted"
  with Invalid_argument _ -> ()

let tests =
  [ Alcotest.test_case "degenerate: modes agree" `Quick
      test_degenerate_modes_agree;
    Alcotest.test_case "degenerate: zero-edge spreads" `Quick
      test_degenerate_zero_edge_spreads;
    Alcotest.test_case "repartition valid + never worse" `Quick
      test_repartition_valid_and_incremental;
    Alcotest.test_case "repartition empty batch" `Quick
      test_repartition_empty_batch;
    Alcotest.test_case "repartition deterministic (jobs 1/4)" `Quick
      test_repartition_deterministic;
    Alcotest.test_case "repartition gate forces scratch" `Quick
      test_repartition_gate_forces_scratch;
    Alcotest.test_case "repartition degenerate edits" `Quick
      test_repartition_degenerate_edits;
    Alcotest.test_case "repartition rejects bad prev" `Quick
      test_repartition_rejects_bad_prev ]

let () = Alcotest.run "repartition" [ ("repartition", tests) ]
