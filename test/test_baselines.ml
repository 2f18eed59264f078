(* Tests for the baseline partitioners: KL, FM facade, Spectral,
   Recursive_bisection, Metis_like, Exact. *)

open Ppnpart_graph
open Ppnpart_partition
open Ppnpart_baselines

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rng () = Random.State.make [| 7 |]

let two_triangles () =
  Wgraph.of_edges ~vwgt:[| 3; 3; 3; 3; 3; 3 |] 6
    [
      (0, 1, 5); (0, 2, 5); (1, 2, 5);
      (3, 4, 5); (3, 5, 5); (4, 5, 5);
      (2, 3, 1);
    ]

(* Two 4-cliques joined by one edge: bisection must cut exactly 1. *)
let two_cliques () =
  let el = Edge_list.create 8 in
  for u = 0 to 3 do
    for v = u + 1 to 3 do
      Edge_list.add el u v 3;
      Edge_list.add el (u + 4) (v + 4) 3
    done
  done;
  Edge_list.add el 3 4 1;
  Wgraph.build el

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

(* --- KL --- *)

let test_kl_two_cliques () =
  let part, cut = Kl.bisect (rng ()) (two_cliques ()) in
  check_int "optimal cut" 1 cut;
  check_int "balanced sides" 4
    (Array.fold_left (fun acc p -> acc + (1 - p)) 0 part)

let test_kl_never_worsens () =
  let g = grid ~w:5 ~h:5 in
  (* n odd: KL keeps side sizes, 12/13 split *)
  let start = Array.init 25 (fun i -> i mod 2) in
  let before = Metrics.cut g start in
  let _, after = Kl.refine g start in
  check_bool "no worse" true (after <= before)

let test_kl_preserves_side_sizes () =
  let g = grid ~w:4 ~h:4 in
  let start = Array.init 16 (fun i -> if i < 8 then 0 else 1) in
  let part, _ = Kl.refine g start in
  check_int "side size kept" 8
    (Array.fold_left (fun acc p -> acc + (1 - p)) 0 part)

let test_kl_rejects_three_way () =
  Alcotest.check_raises "three-way"
    (Invalid_argument "Kl.refine: not two-way") (fun () ->
      ignore (Kl.refine (two_triangles ()) [| 0; 1; 2; 0; 1; 2 |]))

(* --- FM facade --- *)

let test_fm_two_cliques () =
  let _, cut = Fm.bisect (rng ()) (two_cliques ()) in
  check_int "optimal cut" 1 cut

let test_fm_kway_labels () =
  let g = grid ~w:6 ~h:6 in
  let part = Fm.kway (rng ()) g ~k:4 in
  Types.check_partition ~n:36 ~k:4 part;
  check_int "all labels" 4 (Types.parts_used part)

(* --- Spectral --- *)

let test_fiedler_orthogonal_to_ones () =
  let g = grid ~w:5 ~h:3 in
  let f = Spectral.fiedler g in
  let sum = Array.fold_left ( +. ) 0. f in
  check_bool "zero mean" true (abs_float sum < 1e-6);
  let norm = Array.fold_left (fun a v -> a +. (v *. v)) 0. f in
  check_bool "unit norm" true (abs_float (norm -. 1.) < 1e-6)

let test_spectral_separates_cliques () =
  let _, cut = Spectral.bisect (two_cliques ()) in
  check_int "optimal cut" 1 cut

let test_spectral_path_splits_middle () =
  (* Fiedler vector of a path is monotone: the split must be contiguous. *)
  let g = grid ~w:8 ~h:1 in
  let part, cut = Spectral.bisect g in
  check_int "single cut edge" 1 cut;
  let changes = ref 0 in
  for u = 0 to 6 do
    if part.(u) <> part.(u + 1) then incr changes
  done;
  check_int "contiguous" 1 !changes

let test_spectral_kway () =
  let g = grid ~w:6 ~h:6 in
  let part = Spectral.kway (rng ()) g ~k:4 in
  Types.check_partition ~n:36 ~k:4 part;
  check_int "all labels" 4 (Types.parts_used part);
  (* odd k also works *)
  let part3 = Spectral.kway (rng ()) g ~k:3 in
  check_int "3 labels" 3 (Types.parts_used part3)

(* --- Recursive_bisection --- *)

let test_recursive_handles_tiny_graphs () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1); (1, 2, 1) ] in
  let part = Recursive_bisection.kway Fm.bisect (rng ()) g ~k:3 in
  Types.check_partition ~n:3 ~k:3 part;
  check_int "all three labels" 3 (Types.parts_used part)

(* --- Metis_like --- *)

let test_metis_like_small_identity () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1) ] in
  let s = Metis_like.partition g ~k:4 in
  check_bool "each node its own part" true (s.Metis_like.part = [| 0; 1; 2 |])

let test_metis_like_balanced () =
  let g = grid ~w:8 ~h:8 in
  let s = Metis_like.partition g ~k:4 in
  Types.check_partition ~n:64 ~k:4 s.Metis_like.part;
  let loads = Metrics.part_resources g ~k:4 s.Metis_like.part in
  let limit = int_of_float (ceil (1.03 *. 64. /. 4.)) in
  Array.iter
    (fun l -> check_bool "within metis imbalance" true (l <= limit))
    loads

let test_metis_like_beats_random () =
  let r = rng () in
  let g =
    Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 5) ~ew_range:(1, 9) r
      ~n:80 ~m:240
  in
  let s = Metis_like.partition g ~k:4 in
  (* average of a few random 4-way cuts *)
  let rand_cut =
    let total = ref 0 in
    for _ = 1 to 5 do
      total := !total + Metrics.cut g (Initial.random_kway r g ~k:4)
    done;
    !total / 5
  in
  check_bool "multilevel beats random" true (s.Metis_like.cut < rand_cut)

let test_metis_like_deterministic () =
  let g = grid ~w:7 ~h:7 in
  let a = Metis_like.partition ~seed:5 g ~k:3 in
  let b = Metis_like.partition ~seed:5 g ~k:3 in
  check_bool "same partition" true (a.Metis_like.part = b.Metis_like.part);
  check_int "same cut" a.Metis_like.cut b.Metis_like.cut

let test_metrics_imbalance () =
  let g = two_triangles () in
  let balanced = Metrics.imbalance g ~k:2 [| 0; 0; 0; 1; 1; 1 |] in
  check_bool "perfect balance" true (abs_float (balanced -. 1.0) < 1e-9);
  let skewed = Metrics.imbalance g ~k:2 [| 0; 0; 0; 0; 0; 1 |] in
  (* 2 * 15 / 18 *)
  check_bool "skewed" true (abs_float (skewed -. (30. /. 18.)) < 1e-9)

let test_metis_like_ignores_constraints () =
  (* The defining property of the baseline (and the paper's complaint):
     it doesn't know about bmax/rmax, so on the two-triangle graph with a
     node-weight outlier it will happily exceed rmax. *)
  let g =
    Wgraph.of_edges ~vwgt:[| 50; 3; 3; 3; 3; 3 |] 6
      [
        (0, 1, 5); (0, 2, 5); (1, 2, 5);
        (3, 4, 5); (3, 5, 5); (4, 5, 5);
        (2, 3, 1);
      ]
  in
  let s = Metis_like.partition g ~k:2 in
  let c = Types.constraints ~k:2 ~bmax:1000 ~rmax:20 in
  (* node 0 alone busts rmax = 20 wherever it lands *)
  check_bool "resource constraint violated" false (Metrics.feasible g c s.Metis_like.part)

(* --- Exact --- *)

let test_exact_two_triangles () =
  let g = two_triangles () in
  let c = Types.constraints ~k:2 ~bmax:5 ~rmax:9 in
  match Exact.partition g c with
  | Some (part, cut) ->
    check_int "optimal cut" 1 cut;
    check_bool "feasible" true (Metrics.feasible g c part)
  | None -> Alcotest.fail "expected a feasible partition"

let test_exact_detects_infeasible () =
  let g = two_triangles () in
  (* every partition into 2 nonempty parts cuts >= 1 > bmax = 0, and
     rmax = 9 < 18 forbids the single-part escape *)
  let c = Types.constraints ~k:2 ~bmax:0 ~rmax:9 in
  check_bool "infeasible" true (Exact.partition g c = None);
  check_bool "is_feasible agrees" false (Exact.is_feasible g c)

let test_exact_trivial_when_unconstrained () =
  let g = two_triangles () in
  match Exact.partition g (Types.unconstrained ~k:3) with
  | Some (_, cut) -> check_int "one part, no cut" 0 cut
  | None -> Alcotest.fail "unconstrained must be feasible"

let test_exact_require_all_parts () =
  let g = two_triangles () in
  match
    Exact.partition ~require_all_parts:true g (Types.unconstrained ~k:2)
  with
  | Some (part, cut) ->
    check_int "both parts used" 2 (Types.parts_used part);
    check_int "min nonempty cut" 1 cut
  | None -> Alcotest.fail "expected"

let test_exact_node_cap () =
  let g = grid ~w:5 ~h:5 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Exact.partition: more than 24 nodes") (fun () ->
      ignore (Exact.partition g (Types.unconstrained ~k:2)))

(* Exact lower-bounds every heuristic: on random small instances, the GP
   and METIS-like cuts are never below the exact optimum (with matching
   constraints for GP; unconstrained-with-all-parts for METIS-like). *)
let prop_exact_lower_bounds_heuristics =
  QCheck2.Test.make ~name:"exact cut <= heuristic cuts" ~count:15
    QCheck2.Gen.(int_range 6 10)
    (fun n ->
      let r = rng () in
      let m = min (n * (n - 1) / 2) (2 * n) in
      let g =
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 5) ~ew_range:(1, 5) r
          ~n ~m
      in
      let ms = Metis_like.partition g ~k:2 in
      match
        Exact.partition ~require_all_parts:true g (Types.unconstrained ~k:2)
      with
      | Some (_, opt) -> opt <= ms.Metis_like.cut
      | None -> false)

let prop_exact_feasibility_matches_brute_force =
  QCheck2.Test.make ~name:"exact feasibility = brute force (tiny)" ~count:20
    QCheck2.Gen.(pair (int_range 3 6) (int_range 2 3))
    (fun (n, k) ->
      let r = rng () in
      let m = min (n * (n - 1) / 2) (n + 2) in
      let g =
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 4) ~ew_range:(1, 4) r
          ~n ~m
      in
      let c =
        Types.constraints ~k
          ~bmax:(Wgraph.total_edge_weight g / 3)
          ~rmax:(Wgraph.total_node_weight g * 2 / 3)
      in
      (* brute force all k^n assignments *)
      let feasible_bf = ref false in
      let part = Array.make n 0 in
      let rec enum i =
        if i = n then begin
          if Metrics.feasible g c part then feasible_bf := true
        end
        else
          for p = 0 to k - 1 do
            if not !feasible_bf then begin
              part.(i) <- p;
              enum (i + 1)
            end
          done
      in
      enum 0;
      Exact.is_feasible g c = !feasible_bf)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_exact_lower_bounds_heuristics;
      prop_exact_feasibility_matches_brute_force ]

let () =
  Alcotest.run "baselines"
    [
      ( "kl",
        [
          Alcotest.test_case "two cliques" `Quick test_kl_two_cliques;
          Alcotest.test_case "never worsens" `Quick test_kl_never_worsens;
          Alcotest.test_case "preserves side sizes" `Quick
            test_kl_preserves_side_sizes;
          Alcotest.test_case "rejects three-way" `Quick
            test_kl_rejects_three_way;
        ] );
      ( "fm",
        [
          Alcotest.test_case "two cliques" `Quick test_fm_two_cliques;
          Alcotest.test_case "kway labels" `Quick test_fm_kway_labels;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "fiedler orthogonal" `Quick
            test_fiedler_orthogonal_to_ones;
          Alcotest.test_case "separates cliques" `Quick
            test_spectral_separates_cliques;
          Alcotest.test_case "path splits middle" `Quick
            test_spectral_path_splits_middle;
          Alcotest.test_case "kway" `Quick test_spectral_kway;
        ] );
      ( "recursive_bisection",
        [
          Alcotest.test_case "tiny graphs" `Quick
            test_recursive_handles_tiny_graphs;
        ] );
      ( "metis_like",
        [
          Alcotest.test_case "small identity" `Quick
            test_metis_like_small_identity;
          Alcotest.test_case "balanced" `Quick test_metis_like_balanced;
          Alcotest.test_case "beats random" `Quick
            test_metis_like_beats_random;
          Alcotest.test_case "deterministic" `Quick
            test_metis_like_deterministic;
          Alcotest.test_case "ignores constraints" `Quick
            test_metis_like_ignores_constraints;
          Alcotest.test_case "imbalance metric" `Quick
            test_metrics_imbalance;
        ] );
      ( "exact",
        [
          Alcotest.test_case "two triangles" `Quick test_exact_two_triangles;
          Alcotest.test_case "detects infeasible" `Quick
            test_exact_detects_infeasible;
          Alcotest.test_case "trivial unconstrained" `Quick
            test_exact_trivial_when_unconstrained;
          Alcotest.test_case "require all parts" `Quick
            test_exact_require_all_parts;
          Alcotest.test_case "node cap" `Quick test_exact_node_cap;
        ] );
      ("properties", qcheck_cases);
    ]
