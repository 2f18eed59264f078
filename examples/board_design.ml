(* Board design walk-through for a physical link topology (the paper
   assumes all-to-all links between FPGAs).

   A Sobel pipeline is partitioned by GP under a per-FPGA LUT budget and
   a pairwise bandwidth bound, placed on a 2x2 mesh of FPGAs, validated
   against the routed per-link traffic (X-then-Y routing puts diagonal
   pairs' traffic on two links), and finally simulated, with FIFO depths
   sized from the simulated peaks.

   Run with:  dune exec examples/board_design.exe *)

open Ppnpart_graph
open Ppnpart_partition
module PpnM = Ppnpart_ppn
module Fpga = Ppnpart_fpga

let () =
  let ppn = PpnM.Derive.derive (PpnM.Kernels.sobel ~width:24 ~height:24 ()) in
  let g = PpnM.Ppn.to_graph ~bandwidth_scale:8 ppn in
  Printf.printf "network: %s\n" (PpnM.Ppn.summary ppn);

  let k = 4 in
  (* Node weights are the processes' LUT estimates; each FPGA gets ~50%
     headroom over a perfect split. *)
  let rmax = (Wgraph.total_node_weight g / k * 3 / 2) + 1 in
  let bmax =
    let rng = Random.State.make [| 3 |] in
    let probe = Ppnpart_baselines.Spectral.kway rng g ~k in
    (Metrics.max_local_bandwidth g ~k probe * 4 / 3) + 1
  in
  Printf.printf "budgets per FPGA: LUT=%d, Bmax=%d\n" rmax bmax;

  let r = Ppnpart_core.Gp.partition g (Types.constraints ~k ~bmax ~rmax) in
  let part = r.Ppnpart_core.Gp.part in
  Printf.printf "GP partition feasible: %b\n" r.Ppnpart_core.Gp.feasible;
  Array.iteri
    (fun f luts -> Printf.printf "  FPGA %d: LUT=%d\n" f luts)
    (Metrics.part_resources g ~k part);

  (* Validate the routed traffic on the 2x2 mesh and simulate. *)
  let mesh ~bmax =
    Fpga.Platform.make
      ~topology:(Fpga.Platform.Mesh (2, 2))
      ~n_fpgas:k ~rmax ~bmax ()
  in
  let mapping = Fpga.Mapping.of_partition (mesh ~bmax:(8 * bmax)) ppn part in
  (match Fpga.Mapping.violations mapping with
  | [] -> print_endline "mesh routing: within every link budget"
  | vs ->
    List.iter
      (fun v ->
        Format.printf "mesh violation: %a@." Fpga.Mapping.pp_violation v)
      vs);
  match
    Fpga.Sim.run ~fifo_capacity:128 (mesh ~bmax:16) ppn ~assignment:part
  with
  | Error e -> Format.printf "simulation error: %a@." Fpga.Sim.pp_error e
  | Ok r ->
    Format.printf "simulated: %a@." Fpga.Sim.pp_result r;
    (* Size each FIFO from its observed high-water mark. *)
    print_endline "suggested FIFO depths (from simulated peaks):";
    List.iter
      (fun ((c : PpnM.Channel.t), peak) ->
        let depth = max 2 peak in
        Printf.printf "  %s -> %s: depth %d (%d LUTs)\n"
          (PpnM.Ppn.process ppn c.PpnM.Channel.src).PpnM.Process.name
          (PpnM.Ppn.process ppn c.PpnM.Channel.dst).PpnM.Process.name
          depth
          (PpnM.Resource_model.fifo_luts PpnM.Resource_model.default
             ~width:c.PpnM.Channel.width ~depth))
      r.Fpga.Sim.channel_peaks
