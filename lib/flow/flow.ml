let log_src = Logs.Src.create "ppnpart.flow" ~doc:"End-to-end tool flow"

open Ppnpart_graph
open Ppnpart_partition
module Platform = Ppnpart_fpga.Platform
module Mapping = Ppnpart_fpga.Mapping
module Sim = Ppnpart_fpga.Sim

type algorithm = Gp of Ppnpart_core.Config.t | Metis_like | Spectral

type options = {
  k : int;
  algorithm : algorithm;
  topology : Platform.topology;
  link_bandwidth : int;
  explicit_constraints : Types.constraints option;
  simulate : bool;
  seed : int;
}

let default_options ~k =
  {
    k;
    algorithm = Gp Ppnpart_core.Config.default;
    topology = Platform.All_to_all;
    link_bandwidth = 2;
    explicit_constraints = None;
    simulate = true;
    seed = 0;
  }

type t = {
  ppn : Ppnpart_ppn.Ppn.t;
  graph : Wgraph.t;
  constraints : Types.constraints;
  assignment : int array;
  report : Metrics.report;
  feasible : bool;
  platform : Platform.t;
  mapping_violations : Mapping.violation list;
  simulation : (Sim.result, Sim.error) result option;
}

(* Derived bounds: Rmax is the balanced load times this headroom, Bmax
   the spectral probe's bandwidth times that one. *)
let resource_headroom = 1.5
let bandwidth_headroom = 4. /. 3.

let derive_constraints opts g =
  match opts.explicit_constraints with
  | Some c ->
    if c.Types.k <> opts.k then
      invalid_arg "Flow: explicit constraints disagree with options.k";
    c
  | None ->
    let rng = Random.State.make [| opts.seed; 0x666c |] in
    let probe = Ppnpart_baselines.Spectral.kway rng g ~k:opts.k in
    let total = Wgraph.total_node_weight g in
    let balanced = float_of_int total /. float_of_int opts.k in
    let rmax =
      max
        (int_of_float (ceil (balanced *. resource_headroom)))
        (Metrics.max_resource g ~k:opts.k probe)
    in
    let probe_bw = Metrics.max_local_bandwidth g ~k:opts.k probe in
    let bmax =
      max 1
        (int_of_float
           (ceil (float_of_int probe_bw *. bandwidth_headroom)))
    in
    Types.constraints ~k:opts.k ~bmax ~rmax

let partition_with opts g c =
  match opts.algorithm with
  | Gp config ->
    let config = { config with Ppnpart_core.Config.seed = opts.seed } in
    (Ppnpart_core.Gp.partition ~config g c).Ppnpart_core.Gp.part
  | Metis_like ->
    (Ppnpart_baselines.Metis_like.partition ~seed:opts.seed g ~k:opts.k)
      .Ppnpart_baselines.Metis_like.part
  | Spectral ->
    let rng = Random.State.make [| opts.seed |] in
    Ppnpart_baselines.Spectral.kway rng g ~k:opts.k

let map_ppn opts ppn =
  if opts.k < 1 then invalid_arg "Flow: k < 1";
  let graph = Ppnpart_ppn.Ppn.to_graph ppn in
  let constraints = derive_constraints opts graph in
  let t0 = Unix.gettimeofday () in
  let assignment = partition_with opts graph constraints in
  let runtime_s = Unix.gettimeofday () -. t0 in
  let report = Metrics.report ~runtime_s graph constraints assignment in
  let feasible =
    report.Metrics.bandwidth_ok && report.Metrics.resource_ok
  in
  (* Static platform in per-execution units for the routed link check;
     simulation platform in per-cycle units. *)
  let static_platform =
    Platform.make ~topology:opts.topology ~n_fpgas:opts.k
      ~rmax:constraints.Types.rmax ~bmax:constraints.Types.bmax ()
  in
  let mapping = Mapping.of_partition static_platform ppn assignment in
  let mapping_violations = Mapping.violations mapping in
  let simulation =
    if opts.simulate then begin
      let platform =
        Platform.make ~topology:opts.topology ~n_fpgas:opts.k
          ~rmax:constraints.Types.rmax ~bmax:opts.link_bandwidth ()
      in
      Some (Sim.run platform ppn ~assignment)
    end
    else None
  in
  let platform =
    Platform.make ~topology:opts.topology ~n_fpgas:opts.k
      ~rmax:constraints.Types.rmax ~bmax:opts.link_bandwidth ()
  in
  {
    ppn;
    graph;
    constraints;
    assignment;
    report;
    feasible;
    platform;
    mapping_violations;
    simulation;
  }

let run opts stmts = map_ppn opts (Ppnpart_ppn.Derive.derive stmts)

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>network: %s@,graph: %s@,constraints: %a@,"
    (Ppnpart_ppn.Ppn.summary t.ppn)
    (Wgraph.summary t.graph) Types.pp_constraints t.constraints;
  Format.fprintf ppf "partition: %a (feasible: %b)@," Metrics.pp_report
    t.report t.feasible;
  Format.fprintf ppf "%a@," Platform.pp t.platform;
  (match t.mapping_violations with
  | [] -> Format.fprintf ppf "routed link check: ok@,"
  | vs ->
    List.iter
      (fun v -> Format.fprintf ppf "routed link check: %a@,"
          Mapping.pp_violation v)
      vs);
  (match t.simulation with
  | None -> ()
  | Some (Ok r) -> Format.fprintf ppf "simulation: %a@," Sim.pp_result r
  | Some (Error e) ->
    Format.fprintf ppf "simulation failed: %a@," Sim.pp_error e);
  Format.fprintf ppf "@]"

let write_artifacts ~dir t =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let write name contents =
    let path = Filename.concat dir name in
    Ppnpart_graph.Graph_io.write_file path contents;
    path
  in
  [
    write "network.dot"
      (Ppnpart_ppn.Ppn.to_dot ~assignment:t.assignment t.ppn);
    write "graph.dot"
      (Ppnpart_graph.Graph_io.to_dot ~partition:t.assignment t.graph);
    write "assignment.part"
      (Partition_io.to_string ~k:t.constraints.Types.k t.assignment);
    write "summary.txt" (Format.asprintf "%a" pp_summary t);
  ]
