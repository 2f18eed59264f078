(* Scratch profiler (not part of any alias). Default: coarsening
   pipeline component costs. With "repart" as the first argument:
   stage-by-stage breakdown of the incremental repartition path at the
   bench's 50k scale. *)
open Ppnpart_partition
module Gp = Ppnpart_core.Gp
module Config = Ppnpart_core.Config
module Coarsen_oracle = Ppnpart_test_oracle.Coarsen_oracle

let time name f =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "  %-28s %8.4f s\n%!" name (Unix.gettimeofday () -. t0);
  r

let profile_repart () =
  let n = 50_000 and k = 8 in
  let rng = Random.State.make [| 0x7270; n; k |] in
  let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k in
  let base = time "base Gp.partition" (fun () -> Gp.partition g c) in
  let prev = base.Gp.part in
  let ops =
    let seen = Hashtbl.create 64 in
    let ops = ref [] in
    while Hashtbl.length seen < 500 do
      let u = Random.State.int rng (n - 1) in
      if not (Hashtbl.mem seen u) then begin
        Hashtbl.replace seen u ();
        ops := Graph_edit.Set_node_weight (u, 5 + Random.State.int rng 16)
               :: !ops
      end
    done;
    !ops
  in
  let g', node_map, edit =
    time "Graph_edit.apply" (fun () -> Graph_edit.apply g ops)
  in
  Printf.printf "  touched=%d\n%!" edit.Graph_edit.touched;
  let n' = Ppnpart_graph.Wgraph.n_nodes g' in
  let ws = Workspace.create () in
  let labels =
    time "project labels" (fun () ->
        Array.init n' (fun u ->
            let o = node_map.(u) in
            if o >= 0 then prev.(o) else -1))
  in
  let seeded =
    time "Stream.seed_partial" (fun () ->
        Stream.seed_partial ~workspace:ws g' c labels)
  in
  Printf.printf "  seeded=%d\n%!" seeded;
  let _seed_gd = time "Metrics.goodness" (fun () -> Metrics.goodness g' c labels) in
  let rng_r = Random.State.make [| Config.default.Config.seed; 0x6770; 0x7270 |] in
  let st = time "Part_state.init" (fun () -> Part_state.init ~workspace:ws g' c labels) in
  time "Refine_constrained" (fun () ->
      Refine_constrained.refine_state
        ~max_passes:Config.default.Config.refine_passes rng_r st);
  let part = time "snapshot" (fun () -> Part_state.snapshot st) in
  ignore (time "goodness (refined)" (fun () -> Metrics.goodness g' c part));
  ignore (time "Metrics.quality" (fun () -> Metrics.quality g' c part));
  (* Whole-call timings, warm workspace, matching the bench row. *)
  let ws2 = Workspace.create () in
  ignore (Gp.repartition ~workspace:ws2 ~prev g c ops);
  ignore
    (time "Gp.repartition (warm)" (fun () ->
         Gp.repartition ~workspace:ws2 ~prev g c ops));
  ignore (time "Gp.partition scratch" (fun () -> Gp.partition g' c))

let profile_coarsen () =
  let n = 50_000 and m = 200_000 in
  let g =
    let rng = Random.State.make [| n; 0x434b |] in
    Ppnpart_workloads.Rand_graph.gnm ~vw_range:(1, 20) ~ew_range:(1, 9) rng
      ~n ~m
  in
  let ws = Workspace.create () in
  let rng () = Random.State.make [| 1 |] in
  ignore (time "warmup fast build" (fun () ->
      Coarsen.build ~workspace:ws ~target:100 (rng ()) g));
  ignore (time "fast build (steady)" (fun () ->
      Coarsen.build ~workspace:ws ~target:100 (rng ()) g));
  ignore (time "oracle build" (fun () ->
      Coarsen_oracle.build ~target:100 (rng ()) g));
  (* Level-0 component costs. *)
  let r = rng () in
  let rm = time "random_maximal" (fun () -> Matching.random_maximal r g) in
  let he = time "heavy_edge fast" (fun () ->
      Matching.heavy_edge ~workspace:ws (rng ()) g) in
  ignore (time "heavy_edge oracle" (fun () ->
      Coarsen_oracle.heavy_edge (rng ()) g));
  ignore (time "k_means fast" (fun () ->
      Matching.k_means ~workspace:ws (rng ()) g));
  ignore (time "k_means oracle" (fun () -> Coarsen_oracle.k_means (rng ()) g));
  ignore rm;
  ignore (time "contract fast" (fun () -> Coarsen.contract ~workspace:ws g he));
  ignore (time "contract oracle" (fun () -> Coarsen_oracle.contract g he))

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "repart" then
    profile_repart ()
  else profile_coarsen ()
