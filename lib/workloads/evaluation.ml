open Ppnpart_graph
open Ppnpart_partition

type algorithm = {
  name : string;
  solve : Wgraph.t -> Types.constraints -> int array;
}

let gp =
  {
    name = "gp";
    solve = (fun g c -> (Ppnpart_core.Gp.partition g c).Ppnpart_core.Gp.part);
  }

let metis_like =
  {
    name = "metis-like";
    solve =
      (fun g c ->
        (Ppnpart_baselines.Metis_like.partition g ~k:c.Types.k)
          .Ppnpart_baselines.Metis_like.part);
  }

let spectral =
  {
    name = "spectral";
    solve =
      (fun g c ->
        let rng = Random.State.make [| 0 |] in
        Ppnpart_baselines.Spectral.kway rng g ~k:c.Types.k);
  }

type instance = {
  label : string;
  graph : Wgraph.t;
  constraints : Types.constraints;
}

type row = {
  instance : string;
  algorithm : string;
  cut : int;
  max_bandwidth : int;
  max_resources : int;
  feasible : bool;
  runtime_s : float;
}

let run_matrix algorithms instances =
  List.concat_map
    (fun inst ->
      List.map
        (fun algo ->
          let t0 = Unix.gettimeofday () in
          let part = algo.solve inst.graph inst.constraints in
          let runtime_s = Unix.gettimeofday () -. t0 in
          let r =
            Metrics.report ~runtime_s inst.graph inst.constraints part
          in
          {
            instance = inst.label;
            algorithm = algo.name;
            cut = r.Metrics.total_cut;
            max_bandwidth = r.Metrics.max_bandwidth;
            max_resources = r.Metrics.max_resources;
            feasible = r.Metrics.bandwidth_ok && r.Metrics.resource_ok;
            runtime_s;
          })
        algorithms)
    instances

type summary = {
  algorithm : string;
  instances : int;
  feasible_count : int;
  mean_cut_ratio : float;
  total_runtime_s : float;
}

let summarize rows =
  let algorithms =
    List.fold_left
      (fun acc (r : row) ->
        if List.mem r.algorithm acc then acc else r.algorithm :: acc)
      [] rows
    |> List.rev
  in
  let best_cut instance =
    List.fold_left
      (fun acc (r : row) ->
        if r.instance = instance && r.cut < acc then r.cut else acc)
      max_int rows
  in
  List.map
    (fun algorithm ->
      let mine = List.filter (fun (r : row) -> r.algorithm = algorithm) rows in
      let log_ratio_sum, ratio_count =
        List.fold_left
          (fun (acc, count) (r : row) ->
            let best = best_cut r.instance in
            if best = 0 then (acc, count)
            else (acc +. log (float_of_int r.cut /. float_of_int best),
                  count + 1))
          (0., 0) mine
      in
      {
        algorithm;
        instances = List.length mine;
        feasible_count =
          List.length (List.filter (fun (r : row) -> r.feasible) mine);
        mean_cut_ratio =
          (if ratio_count = 0 then 1.
           else exp (log_ratio_sum /. float_of_int ratio_count));
        total_runtime_s =
          List.fold_left (fun acc (r : row) -> acc +. r.runtime_s) 0. mine;
      })
    algorithms

let to_csv rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "instance,algorithm,cut,max_bandwidth,max_resources,feasible,runtime_s\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%d,%d,%d,%b,%.6f\n" r.instance r.algorithm
           r.cut r.max_bandwidth r.max_resources r.feasible r.runtime_s))
    rows;
  Buffer.contents b

let pp_rows ppf rows =
  Format.fprintf ppf "@[<v>%-14s %-12s %6s %8s %8s %9s %9s@,"
    "instance" "algorithm" "cut" "max_bw" "max_res" "feasible" "time(s)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s %-12s %6d %8d %8d %9b %9.3f@," r.instance
        r.algorithm r.cut r.max_bandwidth r.max_resources r.feasible
        r.runtime_s)
    rows;
  Format.fprintf ppf "@]"

let pp_summaries ppf summaries =
  Format.fprintf ppf "@[<v>%-12s %9s %9s %14s %9s@," "algorithm" "instances"
    "feasible" "mean cut ratio" "time(s)";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-12s %9d %9d %14.3f %9.3f@," s.algorithm
        s.instances s.feasible_count s.mean_cut_ratio s.total_runtime_s)
    summaries;
  Format.fprintf ppf "@]"
