(* Tests for the partitioning infrastructure: Types, Metrics, Bucket,
   Matching, Coarsen, Refine_constrained, Initial — plus the two
   balance-driven refiners of the baselines library, Fm and
   Refine_kway. *)

open Ppnpart_graph
open Ppnpart_partition
module Fm = Ppnpart_baselines.Fm
module Refine_kway = Ppnpart_baselines.Refine_kway

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rng () = Random.State.make [| 42 |]

(* 6-node "two triangles + bridge" graph: the canonical bisection example.
   Triangle {0,1,2} (heavy edges), triangle {3,4,5}, bridge 2-3 (light). *)
let two_triangles () =
  Wgraph.of_edges ~vwgt:[| 3; 3; 3; 3; 3; 3 |] 6
    [
      (0, 1, 5); (0, 2, 5); (1, 2, 5);
      (3, 4, 5); (3, 5, 5); (4, 5, 5);
      (2, 3, 1);
    ]

let grid ~w ~h =
  let el = Edge_list.create (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let u = (y * w) + x in
      if x + 1 < w then Edge_list.add el u (u + 1) 1;
      if y + 1 < h then Edge_list.add el u (u + w) 1
    done
  done;
  Wgraph.build el

(* --- Types --- *)

let test_constraints_validation () =
  Alcotest.check_raises "k" (Invalid_argument "Types.constraints: k < 1")
    (fun () -> ignore (Types.constraints ~k:0 ~bmax:1 ~rmax:1));
  let c = Types.unconstrained ~k:4 in
  check_int "k kept" 4 c.Types.k;
  check_int "bmax inf" max_int c.Types.bmax

let test_check_partition () =
  Types.check_partition ~n:3 ~k:2 [| 0; 1; 0 |];
  Alcotest.check_raises "label range"
    (Invalid_argument "Types.check_partition: part label out of range")
    (fun () -> Types.check_partition ~n:3 ~k:2 [| 0; 2; 0 |]);
  check_int "parts used" 2 (Types.parts_used [| 0; 1; 0 |])

(* --- Metrics --- *)

let test_cut () =
  let g = two_triangles () in
  check_int "bridge only" 1 (Metrics.cut g [| 0; 0; 0; 1; 1; 1 |]);
  check_int "worse split" 21 (Metrics.cut g [| 0; 0; 1; 0; 1; 1 |]);
  check_int "all together" 0 (Metrics.cut g [| 0; 0; 0; 0; 0; 0 |])

let test_bandwidth_matrix () =
  let g = two_triangles () in
  let m = Metrics.bandwidth_matrix g ~k:3 [| 0; 0; 1; 1; 2; 2 |] in
  check_int "0-1" 10 m.(0).(1);
  (* edges 0-2(5), 1-2(5) *)
  (* parts: {0,1} {2,3} {4,5}; pair (1,2) edges: 3-4 (5), 3-5 (5) *)
  check_int "1-2 pair" 10 m.(1).(2);
  check_int "symmetric" m.(0).(1) m.(1).(0);
  check_int "diag" 0 m.(1).(1)

let test_max_local_bandwidth () =
  let g = two_triangles () in
  check_int "single pair" 1
    (Metrics.max_local_bandwidth g ~k:2 [| 0; 0; 0; 1; 1; 1 |])

let test_part_resources () =
  let g = two_triangles () in
  let r = Metrics.part_resources g ~k:2 [| 0; 0; 0; 1; 1; 1 |] in
  check_bool "balanced" true (r = [| 9; 9 |]);
  check_int "max" 9 (Metrics.max_resource g ~k:2 [| 0; 0; 0; 1; 1; 1 |])

let test_excesses_and_feasible () =
  let g = two_triangles () in
  let part = [| 0; 0; 0; 1; 1; 1 |] in
  let tight = Types.constraints ~k:2 ~bmax:1 ~rmax:9 in
  check_int "no bw excess" 0 (Metrics.bandwidth_excess g tight part);
  check_int "no res excess" 0 (Metrics.resource_excess g tight part);
  check_bool "feasible" true (Metrics.feasible g tight part);
  let tighter = Types.constraints ~k:2 ~bmax:0 ~rmax:8 in
  check_int "bw excess 1" 1 (Metrics.bandwidth_excess g tighter part);
  check_int "res excess 2" 2 (Metrics.resource_excess g tighter part);
  check_bool "infeasible" false (Metrics.feasible g tighter part)

let test_goodness_ordering () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:1 ~rmax:9 in
  let good = Metrics.goodness g c [| 0; 0; 0; 1; 1; 1 |] in
  let bad = Metrics.goodness g c [| 0; 0; 1; 0; 1; 1 |] in
  check_bool "feasible beats infeasible" true
    (Metrics.compare_goodness good bad < 0);
  check_int "violation zero when feasible" 0 good.Metrics.violation;
  (* two infeasible candidates rank by violation then cut *)
  let c0 = Types.constraints ~k:2 ~bmax:0 ~rmax:9 in
  let a = Metrics.goodness g c0 [| 0; 0; 0; 1; 1; 1 |] in
  let b = Metrics.goodness g c0 [| 0; 0; 1; 0; 1; 1 |] in
  check_bool "smaller violation first" true
    (Metrics.compare_goodness a b < 0)

let test_report () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:1 ~rmax:9 in
  let r = Metrics.report g c [| 0; 0; 0; 1; 1; 1 |] in
  check_int "cut" 1 r.Metrics.total_cut;
  check_bool "both ok" true (r.Metrics.bandwidth_ok && r.Metrics.resource_ok)

(* --- Bucket --- *)

let test_bucket_basic () =
  let b = Bucket.create ~n:10 ~max_gain:5 in
  check_bool "empty" true (Bucket.is_empty b);
  Bucket.insert b 3 2;
  Bucket.insert b 7 (-4);
  Bucket.insert b 1 5;
  check_int "cardinal" 3 (Bucket.cardinal b);
  check_bool "mem" true (Bucket.mem b 7);
  (match Bucket.pop_max b with
  | Some (node, gain) ->
    check_int "max node" 1 node;
    check_int "max gain" 5 gain
  | None -> Alcotest.fail "expected max");
  check_int "after pop" 2 (Bucket.cardinal b)

let test_bucket_adjust () =
  let b = Bucket.create ~n:4 ~max_gain:10 in
  Bucket.insert b 0 1;
  Bucket.insert b 1 2;
  Bucket.adjust b 0 9;
  (match Bucket.peek_max b with
  | Some (node, _) -> check_int "adjusted wins" 0 node
  | None -> Alcotest.fail "expected");
  check_int "gain read" 9 (Bucket.gain b 0)

let test_bucket_errors () =
  let b = Bucket.create ~n:2 ~max_gain:3 in
  Bucket.insert b 0 0;
  Alcotest.check_raises "double insert"
    (Invalid_argument "Bucket.insert: already present") (fun () ->
      Bucket.insert b 0 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bucket: gain out of range") (fun () ->
      Bucket.insert b 1 7);
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Bucket.remove: absent") (fun () -> Bucket.remove b 1)

let test_bucket_pop_order () =
  let b = Bucket.create ~n:6 ~max_gain:6 in
  List.iter (fun (n, g) -> Bucket.insert b n g)
    [ (0, -6); (1, 3); (2, 0); (3, 6); (4, 3) ];
  let popped = ref [] in
  let rec drain () =
    match Bucket.pop_max b with
    | Some (_, g) ->
      popped := g :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  check_bool "non-increasing gains" true
    (List.rev !popped = [ 6; 3; 3; 0; -6 ])

let test_bucket_max_decay () =
  let b = Bucket.create ~n:6 ~max_gain:10 in
  check_int "declared bound" 10 (Bucket.max_gain b);
  Bucket.insert b 0 10;
  Bucket.insert b 1 (-7);
  Bucket.insert b 2 2;
  Bucket.remove b 0;
  (match Bucket.peek_max b with
  | Some (node, gain) ->
    check_int "max decays past removed" 2 node;
    check_int "decayed gain" 2 gain
  | None -> Alcotest.fail "expected a max");
  (* force the cursor through many empty levels in one step *)
  Bucket.adjust b 2 (-10);
  (match Bucket.pop_max b with
  | Some (node, gain) ->
    check_int "decays through empty levels" 1 node;
    check_int "negative max" (-7) gain
  | None -> Alcotest.fail "expected a max");
  (match Bucket.pop_max b with
  | Some (node, gain) ->
    check_int "lowest level reachable" 2 node;
    check_int "lowest gain" (-10) gain
  | None -> Alcotest.fail "expected a max");
  check_bool "drained" true (Bucket.is_empty b)

let test_bucket_clear () =
  let b = Bucket.create ~n:4 ~max_gain:5 in
  Bucket.insert b 0 5;
  Bucket.insert b 1 (-5);
  Bucket.insert b 2 0;
  Bucket.clear b;
  check_bool "empty after clear" true (Bucket.is_empty b);
  check_int "cardinal zero" 0 (Bucket.cardinal b);
  check_bool "membership cleared" false (Bucket.mem b 0);
  (* the structure stays usable after a clear *)
  Bucket.insert b 0 3;
  Bucket.insert b 3 (-2);
  (match Bucket.pop_max b with
  | Some (node, gain) ->
    check_int "reusable node" 0 node;
    check_int "reusable gain" 3 gain
  | None -> Alcotest.fail "expected a max")

(* clear must reset the max cursor, not leave it pointing at the old
   (now empty) top level or below a later higher insertion *)
let test_bucket_clear_cursor () =
  let b = Bucket.create ~n:4 ~max_gain:8 in
  Bucket.insert b 0 8;
  (match Bucket.peek_max b with
  | Some (_, g) -> check_int "cursor at top" 8 g
  | None -> Alcotest.fail "expected a max");
  Bucket.clear b;
  Bucket.insert b 1 (-8);
  (match Bucket.pop_max b with
  | Some (node, gain) ->
    check_int "bottom-level node found after clear" 1 node;
    check_int "bottom gain" (-8) gain
  | None -> Alcotest.fail "cursor stale: bottom insert invisible");
  (* drain to the bottom, then a top insert must be visible again *)
  Bucket.insert b 2 (-8);
  (match Bucket.pop_max b with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a max");
  Bucket.insert b 3 8;
  (match Bucket.pop_max b with
  | Some (node, gain) ->
    check_int "cursor rises on insert" 3 node;
    check_int "top gain" 8 gain
  | None -> Alcotest.fail "cursor stuck at bottom")

let test_bucket_adjust_extremes () =
  let b = Bucket.create ~n:3 ~max_gain:6 in
  Bucket.insert b 0 0;
  Bucket.insert b 1 1;
  Bucket.adjust b 0 6;
  check_int "adjusted to +max" 6 (Bucket.gain b 0);
  Bucket.adjust b 0 (-6);
  check_int "adjusted to -max" (-6) (Bucket.gain b 0);
  (match Bucket.peek_max b with
  | Some (node, _) -> check_int "other node wins" 1 node
  | None -> Alcotest.fail "expected a max");
  Bucket.adjust b 0 6;
  (match Bucket.peek_max b with
  | Some (node, gain) ->
    check_int "back to +max wins" 0 node;
    check_int "gain +max" 6 gain
  | None -> Alcotest.fail "expected a max");
  Alcotest.check_raises "adjust above range"
    (Invalid_argument "Bucket: gain out of range") (fun () ->
      Bucket.adjust b 0 7);
  Alcotest.check_raises "adjust below range"
    (Invalid_argument "Bucket: gain out of range") (fun () ->
      Bucket.adjust b 0 (-7))

let test_bucket_pop_to_empty_with_removes () =
  let b = Bucket.create ~n:8 ~max_gain:4 in
  List.iter (fun (n, g) -> Bucket.insert b n g)
    [ (0, 4); (1, 2); (2, 2); (3, 0); (4, -4) ];
  (match Bucket.pop_max b with
  | Some (node, _) -> check_int "top first" 0 node
  | None -> Alcotest.fail "expected a max");
  (* remove from the middle of a shared gain level, then from the bottom *)
  Bucket.remove b 2;
  Bucket.remove b 4;
  let rec drain acc =
    match Bucket.pop_max b with
    | Some (node, _) -> drain (node :: acc)
    | None -> List.rev acc
  in
  check_bool "remaining popped in gain order" true (drain [] = [ 1; 3 ]);
  check_bool "empty" true (Bucket.is_empty b);
  check_bool "pop on empty" true (Bucket.pop_max b = None);
  check_bool "peek on empty" true (Bucket.peek_max b = None);
  (* still usable after being drained to empty *)
  Bucket.insert b 5 (-1);
  check_bool "reusable after drain" true (Bucket.pop_max b = Some (5, -1))

(* --- Matching --- *)

let all_matchings_valid g =
  List.for_all
    (fun s -> Matching.is_valid g (Matching.compute s (rng ()) g))
    Matching.all_strategies

let test_matchings_valid_on_samples () =
  check_bool "two triangles" true (all_matchings_valid (two_triangles ()));
  check_bool "grid" true (all_matchings_valid (grid ~w:5 ~h:4));
  check_bool "edgeless" true
    (all_matchings_valid (Wgraph.of_edges 4 []))

let test_heavy_edge_prefers_heavy () =
  (* path a-b-c with weights 10 and 1: HEM must match (a,b). *)
  let g = Wgraph.of_edges 3 [ (0, 1, 10); (1, 2, 1) ] in
  let m = Matching.heavy_edge (rng ()) g in
  check_int "a-b matched" 1 m.(0);
  check_int "c alone" 2 m.(2);
  check_int "matched weight" 10 (Matching.matched_weight g m)

let test_random_matching_maximal () =
  (* On a path every maximal matching leaves at most ceil(n/2) unmatched;
     specifically no two adjacent nodes may both stay unmatched. *)
  let g = grid ~w:6 ~h:1 in
  let m = Matching.random_maximal (rng ()) g in
  Wgraph.iter_edges g (fun u v _ ->
      check_bool "no adjacent unmatched pair" false
        (m.(u) = u && m.(v) = v))

let test_best_of_picks_max_weight () =
  let g = two_triangles () in
  let _, m = Matching.best_of (rng ()) g in
  let w = Matching.matched_weight g m in
  List.iter
    (fun s ->
      let w' = Matching.matched_weight g (Matching.compute s (rng ()) g) in
      check_bool "best is at least this strategy" true (w >= w'))
    Matching.all_strategies

let prop_matchings_valid =
  QCheck2.Test.make ~name:"all matchings valid on random graphs" ~count:60
    QCheck2.Gen.(pair (int_range 2 20) (int_range 0 2))
    (fun (n, _salt) ->
      let r = rng () in
      let m = min (n * (n - 1) / 2) (2 * n) in
      let g =
        Ppnpart_workloads.Rand_graph.gnm ~connected:(m >= n - 1)
          ~vw_range:(1, 9) ~ew_range:(1, 9) r ~n ~m
      in
      List.for_all
        (fun s -> Matching.is_valid g (Matching.compute s r g))
        Matching.all_strategies)

(* --- Coarsen --- *)

let test_contract_preserves_weights () =
  let g = two_triangles () in
  let m = Matching.heavy_edge (rng ()) g in
  let coarse, cmap = Coarsen.contract g m in
  check_int "node weight preserved" (Wgraph.total_node_weight g)
    (Wgraph.total_node_weight coarse);
  check_int "cmap length" (Wgraph.n_nodes g) (Array.length cmap);
  Wgraph.validate coarse

let test_contract_cut_equivalence () =
  (* A coarse partition's cut equals its projection's cut on the fine
     graph — the core multilevel invariant. *)
  let g = grid ~w:4 ~h:4 in
  let r = rng () in
  let m = Matching.random_maximal r g in
  let coarse, cmap = Coarsen.contract g m in
  let coarse_part =
    Array.init (Wgraph.n_nodes coarse) (fun i -> i mod 2)
  in
  let fine_part = Coarsen.project_one cmap coarse_part in
  check_int "cut preserved" (Metrics.cut coarse coarse_part)
    (Metrics.cut g fine_part);
  check_int "resources preserved"
    (Metrics.max_resource coarse ~k:2 coarse_part)
    (Metrics.max_resource g ~k:2 fine_part)

let test_hierarchy_shrinks () =
  let g = grid ~w:12 ~h:12 in
  let h = Coarsen.build ~target:20 (rng ()) g in
  check_bool "multiple levels" true (Coarsen.levels h >= 2);
  check_bool "coarsest small or stalled" true
    (Wgraph.n_nodes (Coarsen.coarsest h) < Wgraph.n_nodes g);
  let sizes =
    List.init (Coarsen.levels h) (fun l ->
        Wgraph.n_nodes (Coarsen.graph_at h l))
  in
  check_bool "monotone decreasing" true
    (List.for_all2 ( > )
       (List.filteri (fun i _ -> i < List.length sizes - 1) sizes)
       (List.tl sizes))

let test_project_through_hierarchy () =
  let g = grid ~w:8 ~h:8 in
  let h = Coarsen.build ~target:8 (rng ()) g in
  let coarsest = Coarsen.coarsest h in
  let part = Array.init (Wgraph.n_nodes coarsest) (fun i -> i mod 3) in
  let fine = Coarsen.project h ~coarse_level:(Coarsen.levels h - 1) part in
  check_int "finest length" (Wgraph.n_nodes g) (Array.length fine);
  check_int "cut equal through projection"
    (Metrics.cut coarsest part) (Metrics.cut g fine)

let test_extend_restarts_coarsening () =
  let g = grid ~w:10 ~h:10 in
  let r = rng () in
  let h = Coarsen.build ~target:10 r g in
  let h2 = Coarsen.extend ~target:10 r h ~from_level:0 in
  check_bool "same finest graph" true
    (Wgraph.equal (Coarsen.finest h) (Coarsen.finest h2));
  check_bool "recoarsened to target-ish" true
    (Wgraph.n_nodes (Coarsen.coarsest h2) <= Wgraph.n_nodes g)

(* --- Workspace --- *)

let test_workspace_reuse_after_shrink () =
  let ws = Workspace.create () in
  check_int "starts empty" 0 (Workspace.words ws);
  let big = grid ~w:40 ~h:25 (* 1000 nodes *) in
  let small = grid ~w:8 ~h:8 in
  let r = rng () in
  (* Warm every buffer set on the big graph: heavy-edge and k-means own
     disjoint scratch, so both must see the high-water size once. *)
  List.iter
    (fun s ->
      let partner = Matching.compute ~workspace:ws s r big in
      ignore (Coarsen.contract ~workspace:ws big partner))
    [ Matching.Heavy_edge; Matching.K_means ];
  let high = Workspace.words ws in
  check_bool "grew for the big graph" true (high > 0);
  (* Everything after the high-water mark must be served from existing
     capacity: a smaller graph, then the big one again. *)
  List.iter
    (fun g ->
      let partner = Matching.compute ~workspace:ws Matching.K_means r g in
      let _ = Coarsen.contract ~workspace:ws g partner in
      ())
    [ small; big; small ];
  check_int "no regrowth below the high-water mark" high
    (Workspace.words ws)

let test_workspace_hierarchy_reuse () =
  (* A whole V-cycle-style sequence against one workspace: build, then
     re-extend from the finest level. Steady state reuses the scratch
     and the hierarchies stay bit-identical to workspace-free runs. *)
  let g = grid ~w:20 ~h:20 in
  let ws = Workspace.create () in
  let h1 = Coarsen.build ~workspace:ws ~target:16 (rng ()) g in
  let words_after_build = Workspace.words ws in
  let h2 = Coarsen.extend ~workspace:ws ~target:16 (rng ()) h1 ~from_level:0 in
  check_int "extend reuses the build's scratch" words_after_build
    (Workspace.words ws);
  let h2_ref = Coarsen.extend ~target:16 (rng ()) h1 ~from_level:0 in
  check_int "same levels as workspace-free extend" (Coarsen.levels h2_ref)
    (Coarsen.levels h2);
  for l = 0 to Coarsen.levels h2 - 1 do
    check_bool "level equal" true
      (Wgraph.equal (Coarsen.graph_at h2 l) (Coarsen.graph_at h2_ref l))
  done

let test_workspace_generations () =
  let ws = Workspace.create () in
  let g1 = Workspace.next_gen ws in
  let g2 = Workspace.next_gen ws in
  check_bool "generations advance" true (g2 > g1 && g1 > 0)

let prop_contract_edge_weight_conserved =
  QCheck2.Test.make
    ~name:"contract conserves edge weight (internal + cut)" ~count:50
    QCheck2.Gen.(int_range 4 24)
    (fun n ->
      let r = rng () in
      let m = min (n * (n - 1) / 2) (2 * n) in
      let g =
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 5) ~ew_range:(1, 9) r
          ~n ~m
      in
      let partner = Matching.random_maximal r g in
      let coarse, _ = Coarsen.contract g partner in
      (* Total fine edge weight = coarse edge weight + weight inside pairs *)
      let inside = Matching.matched_weight g partner in
      Wgraph.total_edge_weight g
      = Wgraph.total_edge_weight coarse + inside)

(* --- Fm (two-way FM) --- *)

let test_fm2_finds_bridge () =
  let g = two_triangles () in
  (* Worst start: interleaved. *)
  (* nodes weigh 3 of a total 18, so intermediate states need a
     tolerance above 12/9 for any single move to be legal *)
  let part, cut = Fm.refine ~balance_tolerance:1.4 g [| 0; 1; 0; 1; 0; 1 |] in
  check_int "optimal cut" 1 cut;
  check_bool "sides intact" true (part.(0) = part.(1) && part.(1) = part.(2))

let test_fm2_never_worsens () =
  let g = grid ~w:5 ~h:5 in
  let start = Array.init 25 (fun i -> i mod 2) in
  let start_cut = Metrics.cut g start in
  let _, cut = Fm.refine g start in
  check_bool "no worse" true (cut <= start_cut)

let test_fm2_rejects_bad_labels () =
  let g = two_triangles () in
  Alcotest.check_raises "three-way"
    (Invalid_argument "Fm.refine: not two-way") (fun () ->
      ignore (Fm.refine g [| 0; 1; 2; 0; 1; 2 |]))

let test_fm2_bisect_balanced () =
  let g = grid ~w:6 ~h:6 in
  let part, _ = Fm.bisect (rng ()) g in
  let r = Metrics.part_resources g ~k:2 part in
  let total = Wgraph.total_node_weight g in
  check_bool "both sides within tolerance" true
    (r.(0) <= (total * 11 / 20) + 1 && r.(1) <= (total * 11 / 20) + 1)

let prop_fm2_improves_or_keeps =
  QCheck2.Test.make ~name:"fm2 never increases the cut" ~count:50
    QCheck2.Gen.(int_range 4 30)
    (fun n ->
      let r = rng () in
      let m = min (n * (n - 1) / 2) (2 * n) in
      let g =
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 4) ~ew_range:(1, 9) r
          ~n ~m
      in
      let start = Array.init n (fun i -> i mod 2) in
      let before = Metrics.cut g start in
      let _, after = Fm.refine g start in
      after <= before)

(* --- Refine_kway --- *)

let test_refine_kway_improves () =
  let g = grid ~w:6 ~h:6 in
  let r = rng () in
  let start = Initial.random_kway r g ~k:4 in
  let before = Metrics.cut g start in
  let part, after = Refine_kway.refine r g ~k:4 start in
  Types.check_partition ~n:36 ~k:4 part;
  check_bool "no worse" true (after <= before)

let test_refine_kway_respects_balance () =
  let g = grid ~w:6 ~h:6 in
  let r = rng () in
  let start = Initial.graph_growing r g ~k:4 in
  let part, _ = Refine_kway.refine ~imbalance:1.1 r g ~k:4 start in
  let loads = Metrics.part_resources g ~k:4 part in
  let limit = int_of_float (ceil (1.1 *. 36. /. 4.)) in
  Array.iter (fun l -> check_bool "within limit" true (l <= limit)) loads

(* --- Refine_constrained --- *)

let test_constrained_repairs_violation () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:1 ~rmax:9 in
  (* Start in violation: split cuts through a triangle. *)
  let start = [| 0; 0; 1; 1; 1; 1 |] in
  check_bool "starts infeasible" false (Metrics.feasible g c start);
  let part, gd = Refine_constrained.refine (rng ()) g c start in
  check_int "violation repaired" 0 gd.Metrics.violation;
  check_bool "feasible now" true (Metrics.feasible g c part)

let test_constrained_keeps_feasible () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:1 ~rmax:9 in
  let start = [| 0; 0; 0; 1; 1; 1 |] in
  let part, gd = Refine_constrained.refine (rng ()) g c start in
  check_bool "still feasible" true (Metrics.feasible g c part);
  check_int "cut not worse" 1 gd.Metrics.cut_value

let test_constrained_never_empties_part () =
  let g = grid ~w:4 ~h:4 in
  let c = Types.constraints ~k:4 ~bmax:1000 ~rmax:1000 in
  let start = Array.init 16 (fun i -> i mod 4) in
  let part, _ = Refine_constrained.refine (rng ()) g c start in
  check_int "all parts used" 4 (Types.parts_used part)

(* Regression: [best_target] used to freeze every singleton outright, so
   an all-singletons start under bmax = 0 was stuck — every move empties
   a part, so no move was ever legal and the instance reported
   infeasible. A singleton may now evacuate when that strictly reduces
   the violation. *)
let test_constrained_singleton_evacuates () =
  let g = Wgraph.of_edges 4 [ (0, 1, 3); (2, 3, 4) ] in
  let c = Types.constraints ~k:4 ~bmax:0 ~rmax:10 in
  let start = [| 0; 1; 2; 3 |] in
  check_bool "starts infeasible" false (Metrics.feasible g c start);
  let part, gd = Refine_constrained.refine (rng ()) g c start in
  check_int "reaches feasibility" 0 gd.Metrics.violation;
  check_bool "feasible now" true (Metrics.feasible g c part);
  check_int "zero cut" 0 gd.Metrics.cut_value;
  check_bool "pairs merged" true (part.(0) = part.(1) && part.(2) = part.(3))

let prop_constrained_goodness_monotone =
  QCheck2.Test.make
    ~name:"constrained refine never worsens goodness" ~count:40
    QCheck2.Gen.(pair (int_range 6 24) (int_range 2 4))
    (fun (n, k) ->
      let r = rng () in
      let m = min (n * (n - 1) / 2) (2 * n) in
      let g =
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 9) ~ew_range:(1, 9) r
          ~n ~m
      in
      let c =
        Types.constraints ~k
          ~bmax:(1 + Wgraph.total_edge_weight g / 4)
          ~rmax:(1 + Wgraph.total_node_weight g / 2)
      in
      let start = Initial.random_kway r g ~k in
      let before = Metrics.goodness g c start in
      let _, after = Refine_constrained.refine r g c start in
      Metrics.compare_goodness after before <= 0)

let prop_constrained_incremental_state_consistent =
  QCheck2.Test.make
    ~name:"constrained refine's reported goodness matches recomputation"
    ~count:40
    QCheck2.Gen.(pair (int_range 6 20) (int_range 2 4))
    (fun (n, k) ->
      let r = rng () in
      let m = min (n * (n - 1) / 2) (2 * n) in
      let g =
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 9) ~ew_range:(1, 9) r
          ~n ~m
      in
      let c =
        Types.constraints ~k
          ~bmax:(1 + Wgraph.total_edge_weight g / 6)
          ~rmax:(1 + Wgraph.total_node_weight g / k)
      in
      let start = Initial.random_kway r g ~k in
      let part, gd = Refine_constrained.refine r g c start in
      let fresh = Metrics.goodness g c part in
      Metrics.compare_goodness gd fresh = 0)

(* --- bucket FM vs. the former quadratic FM --- *)

(* The seed's refinement loop, reconstructed on the public Part_state
   API, kept as the behavioural reference the bucket-queue rewrite is
   checked against: random-order greedy sweeps alternating with the
   O(n^2 k) exact-selection tentative pass. *)
let reference_greedy_sweeps max_passes rng (st : Part_state.t) =
  let n = Wgraph.n_nodes st.Part_state.g in
  let k = st.Part_state.c.Types.k in
  let conn = Array.make k 0 in
  let order = Array.init n (fun i -> i) in
  let shuffle () =
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done
  in
  let moved = ref true in
  let passes = ref 0 in
  while !moved && !passes < max_passes do
    moved := false;
    incr passes;
    shuffle ();
    Array.iter
      (fun u ->
        Part_state.connectivity st conn u;
        let cur_violation = Part_state.violation st in
        let v, cut', t = Part_state.best_target st conn u in
        if
          t >= 0
          && (v < cur_violation
             || (v = cur_violation && cut' < st.Part_state.cut))
        then begin
          Part_state.apply_move st u t conn;
          moved := true
        end)
      order
  done

let reference_fm_pass (st : Part_state.t) =
  let n = Wgraph.n_nodes st.Part_state.g in
  let k = st.Part_state.c.Types.k in
  let locked = Array.make n false in
  let conn = Array.make k 0 in
  let select () =
    let chosen = ref None in
    for u = 0 to n - 1 do
      if not locked.(u) then begin
        Part_state.connectivity st conn u;
        let v, cut', t = Part_state.best_target st conn u in
        if t >= 0 then
          match !chosen with
          | Some (_, _, v', cut'') when (v', cut'') <= (v, cut') -> ()
          | _ -> chosen := Some (u, t, v, cut')
      end
    done;
    !chosen
  in
  let start = Part_state.goodness st in
  let best = ref start in
  let best_prefix = ref 0 in
  let moves = ref [] in
  let n_moves = ref 0 in
  let continue = ref true in
  while !continue do
    match select () with
    | None -> continue := false
    | Some (u, t, _, _) ->
      let from = st.Part_state.part.(u) in
      Part_state.connectivity st conn u;
      Part_state.apply_move st u t conn;
      locked.(u) <- true;
      incr n_moves;
      moves := (u, from) :: !moves;
      let gd = Part_state.goodness st in
      if Metrics.compare_goodness gd !best < 0 then begin
        best := gd;
        best_prefix := !n_moves
      end
  done;
  let undo = ref !moves in
  for _ = 1 to !n_moves - !best_prefix do
    match !undo with
    | [] -> ()
    | (u, from) :: tl ->
      undo := tl;
      Part_state.connectivity st conn u;
      Part_state.apply_move st u from conn
  done;
  Metrics.compare_goodness !best start < 0

let reference_refine ?(max_passes = 16) rng g c part0 =
  let st = Part_state.init g c part0 in
  let rounds = ref 0 in
  let improving = ref true in
  while !improving && !rounds < max_passes do
    incr rounds;
    reference_greedy_sweeps max_passes rng st;
    improving := reference_fm_pass st
  done;
  (Part_state.snapshot st, Part_state.goodness st)

let fm_instance ~n ~k ~seed =
  let r = Random.State.make [| n; k; seed |] in
  let m = min (n * (n - 1) / 2) (4 * n) in
  let g =
    Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 9) ~ew_range:(1, 9) r ~n
      ~m
  in
  let c =
    Types.constraints ~k
      ~bmax:((Wgraph.total_edge_weight g / (2 * k)) + 1)
      ~rmax:((Wgraph.total_node_weight g / k * 4 / 3) + 1)
  in
  let part0 = Initial.random_kway r g ~k in
  (g, c, part0)

let test_fm_bucket_matches_quadratic () =
  (* The bucket rewrite against the seed's refine on 20 seeded random
     instances. Both are randomized local searches landing in different
     local optima, so the equivalence is: the primary objective
     (violation) never worse per instance, the secondary (cut) within 10%
     per instance, and at least as good summed over the set. *)
  let total_new = ref 0 and total_old = ref 0 in
  for seed = 1 to 20 do
    let n = 40 + (17 * seed mod 160) and k = 2 + (seed mod 4) in
    let g, c, part0 = fm_instance ~n ~k ~seed in
    let _, gnew =
      Refine_constrained.refine
        (Random.State.make [| 42 |])
        g c (Array.copy part0)
    in
    let _, gold =
      reference_refine (Random.State.make [| 42 |]) g c (Array.copy part0)
    in
    let name = Printf.sprintf "n=%d k=%d seed=%d" n k seed in
    check_bool
      (name ^ ": violation not worse")
      true
      (gnew.Metrics.violation <= gold.Metrics.violation);
    if gnew.Metrics.violation = gold.Metrics.violation then
      check_bool
        (name ^ ": cut within 10%")
        true
        (gnew.Metrics.cut_value
        <= gold.Metrics.cut_value + (gold.Metrics.cut_value / 10) + 2);
    total_new := !total_new + gnew.Metrics.cut_value;
    total_old := !total_old + gold.Metrics.cut_value
  done;
  check_bool
    (Printf.sprintf "aggregate cut not worse (%d vs %d)" !total_new
       !total_old)
    true
    (!total_new <= !total_old)

let test_fm_pass_never_worsens () =
  List.iter
    (fun (n, k, seed) ->
      let g, c, part0 = fm_instance ~n ~k ~seed in
      let st = Part_state.init g c (Array.copy part0) in
      let before = Part_state.goodness st in
      let improved = Refine_constrained.fm_pass st in
      let after = Part_state.goodness st in
      let cmp = Metrics.compare_goodness after before in
      check_bool "rollback keeps best prefix" true (cmp <= 0);
      check_bool "return flag matches" improved (cmp < 0))
    [ (40, 2, 7); (80, 3, 8); (160, 4, 9) ]

let test_fm_pass_timing_smoke () =
  (* The smoke check behind the removed 512-node gate: a bucket pass on a
     5k-node graph must stay at least 5x faster than the quadratic
     reference (estimated from a fixed number of its O(n k^2) selections,
     which cost the same at any move index). Skipped under PPNPART_QUICK. *)
  if Sys.getenv_opt "PPNPART_QUICK" <> None then ()
  else begin
    let g, c, part0 = fm_instance ~n:5000 ~k:8 ~seed:6 in
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let st = Part_state.init g c (Array.copy part0) in
    let _, bucket_s = time (fun () -> Refine_constrained.fm_pass st) in
    let n = Wgraph.n_nodes g in
    let stq = Part_state.init g c (Array.copy part0) in
    let locked = Array.make n false in
    let conn = Array.make c.Types.k 0 in
    let ref_moves = 20 in
    let select () =
      let chosen = ref None in
      for u = 0 to n - 1 do
        if not locked.(u) then begin
          Part_state.connectivity stq conn u;
          let v, cut', t = Part_state.best_target stq conn u in
          if t >= 0 then
            match !chosen with
            | Some (_, _, v', cut'') when (v', cut'') <= (v, cut') -> ()
            | _ -> chosen := Some (u, t, v, cut')
        end
      done;
      !chosen
    in
    let (), ref_s =
      time (fun () ->
          for _ = 1 to ref_moves do
            match select () with
            | None -> ()
            | Some (u, t, _, _) ->
              Part_state.connectivity stq conn u;
              Part_state.apply_move stq u t conn;
              locked.(u) <- true
          done)
    in
    let quadratic_est_s =
      ref_s *. float_of_int n /. float_of_int ref_moves
    in
    check_bool
      (Printf.sprintf "bucket pass %.4fs at least 5x under quadratic %.2fs"
         bucket_s quadratic_est_s)
      true
      (quadratic_est_s >= 5.0 *. bucket_s)
  end

(* --- boundary refinement: active set, cache rollback, ws reuse --- *)

let test_active_set_invariant () =
  (* After an arbitrary move sequence the active set must hold exactly
     the nodes with an external neighbour or sitting in an over-Rmax
     part. Checked from ground truth (a fresh neighbour sweep and
     Metrics loads), independently of the state's own cached [ed]. *)
  List.iter
    (fun (n, k, seed) ->
      let g, c, part0 = fm_instance ~n ~k ~seed in
      let st = Part_state.init g c (Array.copy part0) in
      let conn = Array.make k 0 in
      let r = Random.State.make [| 0xA5; seed |] in
      for _step = 1 to 300 do
        let u = Random.State.int r n in
        let t =
          let t = Random.State.int r (k - 1) in
          if t >= st.Part_state.part.(u) then t + 1 else t
        in
        Part_state.connectivity st conn u;
        Part_state.apply_move st u t conn
      done;
      let part = st.Part_state.part in
      let load = Metrics.part_resources g ~k part in
      let in_set = Array.make n false in
      for i = 0 to st.Part_state.n_active - 1 do
        in_set.(st.Part_state.active.(i)) <- true
      done;
      for u = 0 to n - 1 do
        let ext = ref 0 in
        Wgraph.iter_neighbors g u (fun v w ->
            if part.(v) <> part.(u) then ext := !ext + w);
        let should = !ext > 0 || load.(part.(u)) > c.Types.rmax in
        check_bool
          (Printf.sprintf "n=%d seed=%d: node %d active membership" n seed u)
          should in_set.(u)
      done)
    [ (60, 3, 1); (200, 5, 2); (500, 8, 3) ]

let test_cache_exact_after_fm_rollback () =
  (* fm_pass applies tentative worsening moves and then rolls back to
     the best prefix; the rollback must restore the connectivity rows,
     external degrees, active set and member chains *exactly* — checked
     by the full recomputing validator, which diffs every cached field
     against a from-scratch sweep. *)
  List.iter
    (fun (n, k, seed) ->
      let g, c, part0 = fm_instance ~n ~k ~seed in
      let st = Part_state.init g c (Array.copy part0) in
      ignore (Refine_constrained.fm_pass st);
      Ppnpart_check.Check.part_state ~site:"test.fm_rollback" st;
      ignore (Refine_constrained.exact_fm_pass st);
      Ppnpart_check.Check.part_state ~site:"test.exact_rollback" st)
    [ (40, 2, 7); (120, 4, 8); (300, 6, 9) ]

(* Counters one [f ()] run records. *)
let counters_of f =
  let _, snap = Ppnpart_obs.Obs.with_registry f in
  fun name -> Option.value ~default:0 (List.assoc_opt name snap.counters)

(* Above 512 nodes an FM pass seeds its bucket from the active set
   only: on a converged 10k-node state that is the boundary, a small
   fraction of the graph. *)
let test_fm_seeds_active_set () =
  let n = 10_000 and k = 8 in
  let rng = Random.State.make [| 0x5EED |] in
  let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
  let part, _ =
    Refine_constrained.refine (Random.State.make [| 1 |]) g c
      (Array.init n (fun u -> u * k / n))
  in
  let st = Part_state.init g c part in
  let active = st.Part_state.n_active in
  check_bool "converged: a proper boundary" true (active > 0 && active < n / 10);
  let counter = counters_of (fun () -> Refine_constrained.fm_pass st) in
  check_int "fm.seeded = active set size" active (counter "fm.seeded")

(* A pass locks each node it moves by stamping it with the pass's
   epoch; the next pass must start with every node unlocked, also
   after a pass that rolled moves back, and must then run exactly as
   on a fresh workspace. *)
let test_locks_clear_between_passes () =
  let rolled_back = ref 0 in
  List.iter
    (fun (n, k, seed) ->
      let g, c, part0 = fm_instance ~n ~k ~seed in
      let ws = Workspace.create () in
      let st = Part_state.init ~workspace:ws g c (Array.copy part0) in
      List.iter
        (fun pass ->
          let counter = counters_of (fun () -> pass st) in
          rolled_back := !rolled_back + counter "fm.moves.rolled_back";
          let epoch = ws.Workspace.rf_epoch + 1 in
          for u = 0 to n - 1 do
            if ws.Workspace.rf_lock.(u) = epoch then
              Alcotest.failf "n=%d seed=%d: node %d locked before the pass" n
                seed u
          done;
          let fresh = Part_state.init g c (Array.copy st.Part_state.part) in
          let a = Refine_constrained.fm_pass st in
          let b = Refine_constrained.fm_pass fresh in
          check_bool
            (Printf.sprintf "n=%d seed=%d: next pass as on a fresh workspace"
               n seed)
            true
            (a = b && st.Part_state.part = fresh.Part_state.part))
        [ (fun st -> ignore (Refine_constrained.fm_pass st));
          (fun st -> ignore (Refine_constrained.exact_fm_pass st)) ])
    [ (60, 3, 21); (300, 4, 22); (2000, 6, 23) ];
  check_bool "some pass rolled moves back" true (!rolled_back > 0)

let test_refine_workspace_reuse () =
  (* Two consecutive refine calls against one workspace must return
     exactly what fresh-workspace calls return, and the second call
     (same n, smaller k) must run entirely out of the scratch the first
     one grew. *)
  let ws = Workspace.create () in
  let run ?workspace (n, k, seed) =
    let g, c, part0 = fm_instance ~n ~k ~seed in
    Refine_constrained.refine ?workspace
      (Random.State.make [| 0x5E; seed |])
      g c (Array.copy part0)
  in
  let a = (300, 5, 11) and b = (300, 3, 12) in
  let pa, ga = run ~workspace:ws a in
  let pb, gb = run ~workspace:ws b in
  (* Both ping-pong state banks exist after two calls; from here on
     same-size calls must not allocate any scratch at all. *)
  let words_warm = Workspace.words ws in
  ignore (run ~workspace:ws b);
  check_int "no scratch growth once warm" words_warm (Workspace.words ws);
  let pa', ga' = run a in
  let pb', gb' = run b in
  check_bool "first call matches fresh-workspace run" true
    (pa = pa' && Metrics.compare_goodness ga ga' = 0);
  check_bool "second call matches fresh-workspace run" true
    (pb = pb' && Metrics.compare_goodness gb gb' = 0);
  (* A third call repeating the first instance on the warmed workspace:
     the ping-pong state banks and reused bucket must not leak any state
     between calls. *)
  let pa'', _ = run ~workspace:ws a in
  check_bool "warmed workspace reproduces the first call" true (pa = pa'')

(* --- Initial --- *)

let test_pick_heaviest () =
  let g = two_triangles () in
  check_int "first max" 0 (Initial.pick_heaviest g);
  let g2 = Wgraph.of_edges ~vwgt:[| 1; 9; 2 |] 3 [ (0, 1, 1); (1, 2, 1) ] in
  check_int "heaviest" 1 (Initial.pick_heaviest g2)

let test_graph_growing_uses_all_parts () =
  let g = grid ~w:5 ~h:5 in
  let part = Initial.graph_growing (rng ()) g ~k:4 in
  Types.check_partition ~n:25 ~k:4 part;
  check_int "4 parts" 4 (Types.parts_used part)

let test_greedy_growth_respects_rmax_when_possible () =
  let g = two_triangles () in
  (* rmax 9 fits exactly one triangle per part *)
  let c = Types.constraints ~k:2 ~bmax:100 ~rmax:9 in
  let part = Initial.greedy_resource_growth (rng ()) g c in
  let loads = Metrics.part_resources g ~k:2 part in
  Array.iter (fun l -> check_bool "within rmax" true (l <= 9)) loads

let test_greedy_growth_overflows_when_forced () =
  (* rmax too small for any balanced assignment: algorithm must still
     return a total assignment (violating, as the paper specifies). *)
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:100 ~rmax:4 in
  let part = Initial.greedy_resource_growth (rng ()) g c in
  Types.check_partition ~n:6 ~k:2 part

let test_greedy_growth_empty_graph () =
  let g = Wgraph.of_edges 0 [] in
  let c = Types.constraints ~k:2 ~bmax:1 ~rmax:1 in
  check_int "empty" 0
    (Array.length (Initial.greedy_resource_growth (rng ()) g c))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matchings_valid;
      prop_contract_edge_weight_conserved;
      prop_fm2_improves_or_keeps;
      prop_constrained_goodness_monotone;
      prop_constrained_incremental_state_consistent;
    ]

let () =
  Alcotest.run "partition"
    [
      ( "types",
        [
          Alcotest.test_case "constraints validation" `Quick
            test_constraints_validation;
          Alcotest.test_case "check_partition" `Quick test_check_partition;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "cut" `Quick test_cut;
          Alcotest.test_case "bandwidth matrix" `Quick test_bandwidth_matrix;
          Alcotest.test_case "max local bandwidth" `Quick
            test_max_local_bandwidth;
          Alcotest.test_case "part resources" `Quick test_part_resources;
          Alcotest.test_case "excess / feasible" `Quick
            test_excesses_and_feasible;
          Alcotest.test_case "goodness ordering" `Quick
            test_goodness_ordering;
          Alcotest.test_case "report" `Quick test_report;
        ] );
      ( "bucket",
        [
          Alcotest.test_case "basic" `Quick test_bucket_basic;
          Alcotest.test_case "adjust" `Quick test_bucket_adjust;
          Alcotest.test_case "errors" `Quick test_bucket_errors;
          Alcotest.test_case "pop order" `Quick test_bucket_pop_order;
          Alcotest.test_case "max decay" `Quick test_bucket_max_decay;
          Alcotest.test_case "clear" `Quick test_bucket_clear;
          Alcotest.test_case "clear resets cursor" `Quick
            test_bucket_clear_cursor;
          Alcotest.test_case "adjust at gain extremes" `Quick
            test_bucket_adjust_extremes;
          Alcotest.test_case "pop to empty with removes" `Quick
            test_bucket_pop_to_empty_with_removes;
        ] );
      ( "matching",
        [
          Alcotest.test_case "valid on samples" `Quick
            test_matchings_valid_on_samples;
          Alcotest.test_case "heavy edge prefers heavy" `Quick
            test_heavy_edge_prefers_heavy;
          Alcotest.test_case "random maximal" `Quick
            test_random_matching_maximal;
          Alcotest.test_case "best_of picks max" `Quick
            test_best_of_picks_max_weight;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "weights preserved" `Quick
            test_contract_preserves_weights;
          Alcotest.test_case "cut equivalence" `Quick
            test_contract_cut_equivalence;
          Alcotest.test_case "hierarchy shrinks" `Quick
            test_hierarchy_shrinks;
          Alcotest.test_case "project through" `Quick
            test_project_through_hierarchy;
          Alcotest.test_case "extend restarts" `Quick
            test_extend_restarts_coarsening;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "reuse after shrink" `Quick
            test_workspace_reuse_after_shrink;
          Alcotest.test_case "hierarchy reuse" `Quick
            test_workspace_hierarchy_reuse;
          Alcotest.test_case "generations" `Quick test_workspace_generations;
        ] );
      ( "fm2",
        [
          Alcotest.test_case "finds bridge" `Quick test_fm2_finds_bridge;
          Alcotest.test_case "never worsens" `Quick test_fm2_never_worsens;
          Alcotest.test_case "rejects bad labels" `Quick
            test_fm2_rejects_bad_labels;
          Alcotest.test_case "bisect balanced" `Quick
            test_fm2_bisect_balanced;
        ] );
      ( "refine_kway",
        [
          Alcotest.test_case "improves" `Quick test_refine_kway_improves;
          Alcotest.test_case "respects balance" `Quick
            test_refine_kway_respects_balance;
        ] );
      ( "refine_constrained",
        [
          Alcotest.test_case "repairs violation" `Quick
            test_constrained_repairs_violation;
          Alcotest.test_case "keeps feasible" `Quick
            test_constrained_keeps_feasible;
          Alcotest.test_case "singleton evacuates to repair" `Quick
            test_constrained_singleton_evacuates;
          Alcotest.test_case "never empties part" `Quick
            test_constrained_never_empties_part;
          Alcotest.test_case "bucket matches quadratic" `Quick
            test_fm_bucket_matches_quadratic;
          Alcotest.test_case "fm_pass never worsens" `Quick
            test_fm_pass_never_worsens;
          Alcotest.test_case "fm_pass timing smoke" `Slow
            test_fm_pass_timing_smoke;
          Alcotest.test_case "active set invariant" `Quick
            test_active_set_invariant;
          Alcotest.test_case "cache exact after FM rollback" `Quick
            test_cache_exact_after_fm_rollback;
          Alcotest.test_case "workspace reuse across refines" `Quick
            test_refine_workspace_reuse;
          Alcotest.test_case "fm seeds the active set" `Quick
            test_fm_seeds_active_set;
          Alcotest.test_case "locks clear between passes" `Quick
            test_locks_clear_between_passes;
        ] );
      ( "initial",
        [
          Alcotest.test_case "pick heaviest" `Quick test_pick_heaviest;
          Alcotest.test_case "graph growing all parts" `Quick
            test_graph_growing_uses_all_parts;
          Alcotest.test_case "greedy respects rmax" `Quick
            test_greedy_growth_respects_rmax_when_possible;
          Alcotest.test_case "greedy overflow fallback" `Quick
            test_greedy_growth_overflows_when_forced;
          Alcotest.test_case "greedy empty graph" `Quick
            test_greedy_growth_empty_graph;
        ] );
      ("properties", qcheck_cases);
    ]
