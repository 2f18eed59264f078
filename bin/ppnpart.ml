(* ppnpart: command-line front end.

   Subcommands:
     partition    read (or generate) a graph and partition it under the
                  bandwidth/resource constraints with a chosen algorithm
     gen          emit a synthetic process-network graph in METIS format
     experiments  reproduce the paper's three result tables
     info         print summary statistics of a graph file *)

open Cmdliner
open Ppnpart_graph
open Ppnpart_partition

(* --- logging setup --- *)

let log_level_arg =
  let levels =
    [ ("quiet", None); ("app", Some Logs.App); ("error", Some Logs.Error);
      ("warning", Some Logs.Warning); ("info", Some Logs.Info);
      ("debug", Some Logs.Debug) ]
  in
  Arg.(
    value
    & opt (enum levels) (Some Logs.Warning)
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Log verbosity: $(b,quiet), $(b,app), $(b,error), $(b,warning), \
           $(b,info) or $(b,debug). Every library logs to its own source \
           (ppnpart.gp, ppnpart.partition, ppnpart.exec, ...).")

let setup_logs_term =
  let setup level =
    Fmt_tty.setup_std_outputs ();
    Logs.set_level ~all:true level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const setup $ log_level_arg)

(* The first non-blank line of [text], trimmed. *)
let rec first_line text pos =
  let stop =
    Option.value ~default:(String.length text)
      (String.index_from_opt text pos '\n')
  in
  let line = String.trim (String.sub text pos (stop - pos)) in
  if line = "" && stop < String.length text then first_line text (stop + 1)
  else line

(* Both supported formats are told apart by their first line: an
   adjacency matrix opens with its size alone, while a METIS file opens
   with a [%] comment or a header of two or three fields. Only the
   matching parser runs, so a malformed file is reported in its own
   format's terms. The read and the parse are the [cli.read] and
   [cli.parse] phases of [partition --stats]. *)
let read_graph path =
  match Ppnpart_obs.Span.with_ "cli.read" (fun () -> Graph_io.read_file path)
  with
  | exception Sys_error msg -> Error msg
  | text -> (
    let line = first_line text 0 in
    let matrix =
      line <> ""
      && line.[0] <> '%'
      && not (String.exists (fun c -> c = ' ' || c = '\t') line)
    in
    let parse =
      if matrix then Graph_io.of_adjacency_matrix else Graph_io.of_metis
    in
    match Ppnpart_obs.Span.with_ "cli.parse" (fun () -> parse text) with
    | g -> Ok g
    | exception Failure msg -> Error msg)

(* --- shared arguments --- *)

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE"
        ~doc:"Input graph (METIS .graph or adjacency-matrix format).")

let paper_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "paper" ] ~docv:"N"
        ~doc:"Use the paper's experiment instance $(docv) (1-3) as input.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* -k, --bmax and --rmax are optional so that [--paper N] can supply
   the paper's values for the ones not given (see [constraint_options]). *)
let k_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "k" ] ~docv:"K" ~absent:"4, or the paper's K with $(b,--paper)"
        ~doc:"Number of partitions (FPGAs).")

let bmax_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "bmax" ] ~docv:"B"
        ~absent:"unbounded, or the paper's Bmax with $(b,--paper)"
        ~doc:"Pairwise bandwidth bound between partitions.")

let rmax_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "rmax" ] ~docv:"R"
        ~absent:"unbounded, or the paper's Rmax with $(b,--paper)"
        ~doc:"Per-partition resource bound.")

let algo_arg =
  let algos =
    [ ("gp", `Gp); ("metis", `Metis); ("spectral", `Spectral); ("fm", `Fm);
      ("kl", `Kl); ("exact", `Exact) ]
  in
  Arg.(
    value
    & opt (enum algos) `Gp
    & info [ "a"; "algo" ] ~docv:"ALGO"
        ~doc:
          "Partitioner: $(b,gp) (the paper's constrained multilevel), \
           $(b,metis) (mini-METIS cut minimizer), $(b,spectral), $(b,fm), \
           $(b,kl) (two-way only unless k is a power of two), or \
           $(b,exact) (branch and bound, <= 24 nodes).")

let mode_arg =
  let modes =
    [ ("multilevel", Ppnpart_core.Config.Multilevel);
      ("stream", Ppnpart_core.Config.Stream);
      ("hybrid", Ppnpart_core.Config.Hybrid) ]
  in
  Arg.(
    value
    & opt (enum modes) Ppnpart_core.Config.Multilevel
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "GP pipeline (GP only): $(b,multilevel) (the paper's full \
           V-cycle, default), $(b,stream) (one-pass restreaming \
           partitioner, O(edges) time and O(n + k + k^2) state, for \
           graphs that dwarf the multilevel path), or $(b,hybrid) \
           (streaming seed polished by the constrained boundary refiner, \
           no coarsening). Multilevel runs its speculative search on as \
           many domains as the process has CPUs; every mode finds the same \
           partition on any number of CPUs.")

let stream_iterations_arg =
  Arg.(
    value
    & opt int Ppnpart_partition.Stream.default_iterations
    & info [ "stream-iterations" ] ~docv:"N"
        ~doc:
          "Restream passes for $(b,--mode stream)/$(b,hybrid): pass 1 \
           streams the unassigned graph, each further pass revisits \
           every node with an escalated load/bandwidth penalty and stops \
           early at a fixed point. At most 1000: the penalty overflows a \
           float past ~1300 passes.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:"Write the partitioned graph as Graphviz DOT to $(docv).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:"Write the partition (METIS-style .part file) to $(docv).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Profile the run and write a Chrome trace-event JSON file to \
           $(docv); open it at $(b,https://ui.perfetto.dev) or in \
           $(b,chrome://tracing). The trace is identical on any number \
           of CPUs.")

let trace_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:
          "Profile the run and write the raw event stream as JSON lines \
           to $(docv).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Collect run metrics (counters, gauges, per-phase latency and \
           GC/allocation histograms) and write them in OpenMetrics/\
           Prometheus text format to $(docv). Metric values are identical \
           on any number of CPUs.")

let report_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-json" ] ~docv:"FILE"
        ~doc:
          "Write a consolidated machine-readable run report to $(docv): \
           partition quality (cut, pairwise bandwidth matrix, Bmax/Rmax \
           excess, per-part loads, imbalance) plus per-phase wall time, \
           latency quantiles and GC deltas.")

let det_report_arg =
  Arg.(
    value & flag
    & info [ "deterministic-report" ]
        ~doc:
          "Render $(b,--report-json) in deterministic mode: spans are \
           timed on the logical event clock and every field whose value \
           depends on the schedule or heap history (wall seconds, \
           collection counts, promoted/major words, heap sizes) is \
           dropped, so the report is byte-identical on any number of \
           CPUs. Traces written alongside use the logical clock too.")

(* Output files land wherever the user pointed the flag; create missing
   parent directories, and turn the remaining failures (permissions,
   path is a directory, ...) into a CLI error naming the flag instead
   of an uncaught Sys_error. *)
let rec mkdirs dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let with_output ~flag path f =
  (try
     mkdirs (Filename.dirname path);
     f path
   with
  | Sys_error msg ->
    Printf.eprintf "ppnpart: %s %s: %s\n" flag path msg;
    exit 2
  | Unix.Unix_error (e, _, arg) ->
    Printf.eprintf "ppnpart: %s %s: %s%s\n" flag path (Unix.error_message e)
      (if arg = "" then "" else " (" ^ arg ^ ")");
    exit 2);
  Printf.printf "wrote %s\n" path

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Profile the run and print a per-phase table (calls, total and \
           mean wall time) plus move/gain counters after the result.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Run with the invariant checkers on (GP only): every phase \
           boundary recomputes the partition state from scratch and the \
           run aborts on the first divergence from the incremental state. \
           Equivalent to setting $(b,PPNPART_CHECK=1). Slow; for \
           debugging.")

let paper_experiment n =
  let module PG = Ppnpart_workloads.Paper_graphs in
  match n with
  | 1 -> Some PG.experiment1
  | 2 -> Some PG.experiment2
  | 3 -> Some PG.experiment3
  | _ -> None

(* The explicit -k/--bmax/--rmax values; for each one absent, the
   paper's with [--paper N], else k = 4 and no bound. *)
let constraint_options paper ~k ~bmax ~rmax =
  let paper_c =
    Option.map
      (fun e -> e.Ppnpart_workloads.Paper_graphs.constraints)
      (Option.bind paper paper_experiment)
  in
  let pick given field default =
    match (given, paper_c) with
    | Some v, _ -> v
    | None, Some c -> field c
    | None, None -> default
  in
  ( pick k (fun c -> c.Types.k) 4,
    pick bmax (fun c -> c.Types.bmax) max_int,
    pick rmax (fun c -> c.Types.rmax) max_int )

let resolve_input input paper seed =
  match (input, paper) with
  | Some path, None -> read_graph path
  | None, Some n -> (
    match paper_experiment n with
    | Some e -> Ok e.Ppnpart_workloads.Paper_graphs.graph
    | None -> Error "--paper expects 1, 2 or 3")
  | None, None ->
    (* default demo graph *)
    let rng = Random.State.make [| seed |] in
    Ok
      (Ppnpart_workloads.Rand_graph.gnm ~vw_range:(10, 50) ~ew_range:(1, 9)
         rng ~n:24 ~m:60)
  | Some _, Some _ -> Error "--input and --paper are mutually exclusive"

(* [Types.constraints] and [Config.validate] reject an out-of-range
   option with [Invalid_argument]; the CLI reports it as an input
   error. *)
let checked_options f =
  match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

(* --- partition command --- *)

let partition_cmd =
  let run () input paper seed k bmax rmax algo mode stream_iterations
      dot save trace_out trace_jsonl metrics_out report_json det_report stats
      check =
    let k, bmax, rmax = constraint_options paper ~k ~bmax ~rmax in
    let options () =
      let c = Types.constraints ~k ~bmax ~rmax in
      let config =
        { Ppnpart_core.Config.default with seed; mode; stream_iterations;
          debug_checks = Ppnpart_core.Config.default.debug_checks || check
        }
      in
      Ppnpart_core.Config.validate config;
      (c, config)
    in
    (* Deterministic reports need span durations measured on the
       logical event clock, which lives in the trace buffers — so the
       flag implies a capture even when no trace file was asked for. The
       sinks go in before the input is read, so the run's four phases
       [cli.read], [cli.parse], [cli.partition] and [cli.write] cover
       it from input to output. *)
    let tracing = trace_out <> None || trace_jsonl <> None || det_report in
    let metrics = metrics_out <> None || report_json <> None || stats in
    let clock =
      if det_report then Ppnpart_obs.Obs.Logical else Ppnpart_obs.Obs.Wall
    in
    match
      Result.bind (checked_options options) (fun o ->
          if tracing then Ppnpart_obs.Obs.install ~clock ();
          if metrics then Ppnpart_obs.Obs.install_registry ();
          Result.map (fun g -> (o, g)) (resolve_input input paper seed))
    with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok ((c, config), g) ->
      (* The report is computed exactly once per run: GP already returns
         one, the other algorithms build theirs from their own timing. *)
      let gp_result = ref None in
      let name, part, report =
        Ppnpart_obs.Span.with_ "cli.partition" @@ fun () ->
        let t0 = Unix.gettimeofday () in
        let rng = Random.State.make [| seed |] in
        match algo with
        | `Gp ->
          let r = Ppnpart_core.Gp.partition ~config g c in
          gp_result := Some r;
          let name =
            match mode with
            | Ppnpart_core.Config.Multilevel -> "GP"
            | m -> "GP/" ^ Ppnpart_core.Config.mode_name m
          in
          (name, r.Ppnpart_core.Gp.part, r.Ppnpart_core.Gp.report)
        | (`Metis | `Spectral | `Fm | `Kl | `Exact) as algo ->
          let timed_report p =
            Metrics.report ~runtime_s:(Unix.gettimeofday () -. t0) g c p
          in
          let res =
            match algo with
            | `Metis ->
              let s = Ppnpart_baselines.Metis_like.partition ~seed g ~k in
              ( "METIS-like",
                s.Ppnpart_baselines.Metis_like.part,
                Metrics.report
                  ~runtime_s:s.Ppnpart_baselines.Metis_like.runtime_s g c
                  s.Ppnpart_baselines.Metis_like.part )
            | `Spectral ->
              let p = Ppnpart_baselines.Spectral.kway rng g ~k in
              ("spectral", p, timed_report p)
            | `Fm ->
              let p = Ppnpart_baselines.Fm.kway rng g ~k in
              ("FM", p, timed_report p)
            | `Kl ->
              let p =
                Ppnpart_baselines.Recursive_bisection.kway
                  Ppnpart_baselines.Kl.bisect rng g ~k
              in
              ("KL", p, timed_report p)
            | `Exact -> (
              match Ppnpart_baselines.Exact.partition g c with
              | Some (p, _) -> ("exact", p, timed_report p)
              | None ->
                Printf.printf "exact: no feasible partition exists\n";
                exit 3)
          in
          res
      in
      Ppnpart_obs.Span.with_ "cli.write" (fun () ->
          print_string
            (Ppnpart_core.Report.table
               ~title:(Printf.sprintf "%s on %s" name (Wgraph.summary g))
               ~constraints:c
               [ (name, report) ]);
          Printf.printf "assignment:";
          Array.iter (fun p -> Printf.printf " %d" p) part;
          print_newline ();
          Option.iter
            (fun path ->
              with_output ~flag:"--dot" path (fun path ->
                  Graph_io.write_file path
                    (Graph_io.to_dot ~partition:part g)))
            dot;
          Option.iter
            (fun path ->
              with_output ~flag:"--save" path (fun path ->
                  Partition_io.save path ~k part))
            save;
          flush stdout);
      let capture = if tracing then Ppnpart_obs.Obs.finish () else None in
      let snapshot =
        if metrics then Ppnpart_obs.Obs.finish_registry () else None
      in
      Option.iter
        (fun cap ->
          Option.iter
            (fun path ->
              with_output ~flag:"--trace-out" path (fun path ->
                  Graph_io.write_file path
                    (Ppnpart_obs.Trace_export.to_chrome cap)))
            trace_out;
          Option.iter
            (fun path ->
              with_output ~flag:"--trace-jsonl" path (fun path ->
                  Graph_io.write_file path
                    (Ppnpart_obs.Trace_export.to_jsonl cap)))
            trace_jsonl)
        capture;
      if stats then
        Option.iter
          (Format.printf "@.%a" (Ppnpart_core.Run_report.pp_stats ~clock))
          snapshot;
      Option.iter
        (fun path ->
          let snap =
            Option.value ~default:Ppnpart_obs.Metrics_registry.empty_snapshot
              snapshot
          in
          with_output ~flag:"--metrics-out" path (fun path ->
              Graph_io.write_file path
                (Ppnpart_obs.Trace_export.to_openmetrics snap)))
        metrics_out;
      Option.iter
        (fun path ->
          let json =
            match !gp_result with
            | Some r ->
              Ppnpart_core.Run_report.of_result ~deterministic:det_report
                ~algo:name ?snapshot g c r
            | None ->
              Ppnpart_core.Run_report.to_json ~deterministic:det_report
                ~algo:name ~runtime_s:report.Metrics.runtime_s ?snapshot g c
                part
          in
          with_output ~flag:"--report-json" path (fun path ->
              Graph_io.write_file path (json ^ "\n")))
        report_json;
      if report.Metrics.bandwidth_ok && report.Metrics.resource_ok then 0
      else 4
  in
  let term =
    Term.(
      const run $ setup_logs_term $ input_arg $ paper_arg $ seed_arg
      $ k_arg $ bmax_arg $ rmax_arg $ algo_arg $ mode_arg
      $ stream_iterations_arg $ dot_arg $ save_arg $ trace_out_arg
      $ trace_jsonl_arg $ metrics_out_arg $ report_json_arg
      $ det_report_arg $ stats_arg $ check_arg)
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Partition a process-network graph under bandwidth and resource \
          constraints. Exit code 4 when the result violates a constraint, \
          3 when exact search proves infeasibility.")
    term

(* --- gen command --- *)

let gen_cmd =
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("gnm", `Gnm); ("layered", `Layered) ]) `Gnm
      & info [ "kind" ] ~docv:"KIND" ~doc:"Generator: $(b,gnm) or $(b,layered).")
  in
  let n_arg = Arg.(value & opt int 24 & info [ "n" ] ~doc:"Nodes (gnm).") in
  let m_arg = Arg.(value & opt int 60 & info [ "m" ] ~doc:"Edges (gnm).") in
  let layers_arg =
    Arg.(value & opt int 8 & info [ "layers" ] ~doc:"Layers (layered).")
  in
  let width_arg =
    Arg.(value & opt int 4 & info [ "width" ] ~doc:"Layer width (layered).")
  in
  let run kind n m layers width seed =
    let rng = Random.State.make [| seed |] in
    let g =
      match kind with
      | `Gnm ->
        Ppnpart_workloads.Rand_graph.gnm ~vw_range:(10, 50) ~ew_range:(1, 9)
          rng ~n ~m
      | `Layered ->
        Ppnpart_workloads.Rand_graph.layered ~vw_range:(10, 50)
          ~ew_range:(1, 9) rng ~layers ~width
    in
    print_string (Graph_io.to_metis g);
    0
  in
  let term =
    Term.(
      const run $ kind_arg $ n_arg $ m_arg $ layers_arg $ width_arg
      $ seed_arg)
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a synthetic process-network graph (METIS format).")
    term

(* --- experiments command --- *)

let experiments_cmd =
  let stable_arg =
    Arg.(
      value & flag
      & info [ "stable" ]
          ~doc:
            "Print only the run-independent columns (no timings): suitable \
             for golden-file regression tests of the reproduction.")
  in
  let run () stable =
    let module PG = Ppnpart_workloads.Paper_graphs in
    List.iter
      (fun (e : PG.experiment) ->
        let g = e.PG.graph and c = e.PG.constraints in
        let ms = Ppnpart_baselines.Metis_like.partition g ~k:c.Types.k in
        let mrep =
          Metrics.report
            ~runtime_s:ms.Ppnpart_baselines.Metis_like.runtime_s g c
            ms.Ppnpart_baselines.Metis_like.part
        in
        let gp = Ppnpart_core.Gp.partition g c in
        if stable then begin
          let row name (r : Metrics.report) =
            Printf.printf "%s,%s,cut=%d,max_res=%d%s,max_bw=%d%s\n" e.PG.name
              name r.Metrics.total_cut r.Metrics.max_resources
              (if r.Metrics.resource_ok then "" else "!")
              r.Metrics.max_bandwidth
              (if r.Metrics.bandwidth_ok then "" else "!")
          in
          row "metis-like" mrep;
          row "gp" gp.Ppnpart_core.Gp.report
        end
        else begin
          print_string
            (Ppnpart_core.Report.table ~title:e.PG.name ~constraints:c
               [ ("METIS-like", mrep); ("GP", gp.Ppnpart_core.Gp.report) ]);
          print_newline ()
        end)
      PG.all;
    0
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce the paper's Tables I-III (METIS-like vs GP).")
    Term.(const run $ setup_logs_term $ stable_arg)

(* --- simulate command --- *)

let simulate_cmd =
  let kernel_arg =
    let kernels =
      List.map (fun (name, _) -> (name, name)) Ppnpart_ppn.Kernels.all
    in
    Arg.(
      value
      & opt (enum kernels) "chain"
      & info [ "kernel" ] ~docv:"KERNEL"
          ~doc:"Kernel to derive, partition and simulate.")
  in
  let n_fpgas_arg =
    Arg.(value & opt int 4 & info [ "fpgas" ] ~doc:"Number of FPGAs.")
  in
  let link_arg =
    Arg.(
      value & opt int 2
      & info [ "link-bw" ] ~doc:"Link bandwidth in data units per cycle.")
  in
  let topology_arg =
    Arg.(
      value
      & opt (enum [ ("all-to-all", `All); ("ring", `Ring); ("mesh", `Mesh) ])
          `All
      & info [ "topology" ] ~doc:"Physical link topology.")
  in
  let program_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "program" ] ~docv:"FILE"
          ~doc:
            "A .pn affine program to derive the network from (overrides \
             $(b,--kernel)).")
  in
  let run () kernel program n_fpgas link_bw topology seed =
    let stmts =
      match program with
      | None -> List.assoc kernel Ppnpart_ppn.Kernels.all
      | Some path -> (
        match Ppnpart_lang.Lang.parse_file path with
        | Ok stmts -> stmts
        | Error e ->
          Format.eprintf "%s: %a@." path Ppnpart_lang.Lang.pp_error e;
          exit 1)
    in
    let topology =
      match topology with
      | `All -> Ppnpart_fpga.Platform.All_to_all
      | `Ring -> Ppnpart_fpga.Platform.Ring
      | `Mesh ->
        (* squarest mesh for the FPGA count *)
        let rec best r = if n_fpgas mod r = 0 then r else best (r - 1) in
        let rows = best (int_of_float (sqrt (float_of_int n_fpgas))) in
        Ppnpart_fpga.Platform.Mesh (rows, n_fpgas / rows)
    in
    let opts =
      {
        (Ppnpart_flow.Flow.default_options ~k:n_fpgas) with
        Ppnpart_flow.Flow.topology;
        link_bandwidth = link_bw;
        seed;
      }
    in
    let t = Ppnpart_flow.Flow.run opts stmts in
    Format.printf "%a@." Ppnpart_flow.Flow.pp_summary t;
    0
  in
  let term =
    Term.(
      const run $ setup_logs_term $ kernel_arg $ program_arg $ n_fpgas_arg
      $ link_arg $ topology_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Derive a kernel's process network, partition it with GP, map it \
          onto a multi-FPGA platform and run the cycle-level simulator.")
    term

(* --- kernels command --- *)

let kernels_cmd =
  let emit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"KERNEL"
          ~doc:"Print the named built-in kernel as a .pn program.")
  in
  let run emit =
    match emit with
    | Some name -> (
      match List.assoc_opt name Ppnpart_ppn.Kernels.all with
      | Some stmts ->
        print_string (Ppnpart_lang.Lang.emit stmts);
        0
      | None ->
        Printf.eprintf "unknown kernel %s; available: %s\n" name
          (String.concat " " (List.map fst Ppnpart_ppn.Kernels.all));
        2)
    | None ->
      Printf.printf "%-12s %-12s %-10s %-12s\n" "kernel" "statements"
        "processes" "channels";
      List.iter
        (fun (name, stmts) ->
          let ppn = Ppnpart_ppn.Derive.derive stmts in
          Printf.printf "%-12s %-12d %-10d %-12d\n" name
            (List.length stmts)
            (Ppnpart_ppn.Ppn.n_processes ppn)
            (List.length (Ppnpart_ppn.Ppn.channels ppn)))
        Ppnpart_ppn.Kernels.all;
      0
  in
  Cmd.v
    (Cmd.info "kernels"
       ~doc:
         "List the built-in affine kernels, or export one as a .pn \
          program with $(b,--emit).")
    Term.(const run $ emit_arg)

(* --- eval command --- *)

let eval_cmd =
  let part_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "part" ] ~docv:"FILE"
          ~doc:"Partition file (as written by $(b,partition --save)).")
  in
  let run input paper seed bmax rmax part_path =
    match resolve_input input paper seed with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok g -> (
      match Partition_io.load ~expect_n:(Wgraph.n_nodes g) part_path with
      | exception Partition_io.Parse_error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
      | part, k -> (
        let _, bmax, rmax = constraint_options paper ~k:None ~bmax ~rmax in
        match checked_options (fun () -> Types.constraints ~k ~bmax ~rmax) with
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
        | Ok c ->
          let report = Metrics.report g c part in
          print_string
            (Ppnpart_core.Report.table
               ~title:(Printf.sprintf "evaluation of %s" part_path)
               ~constraints:c
               [ ("loaded", report) ]);
          if report.Metrics.bandwidth_ok && report.Metrics.resource_ok then 0
          else 4))
  in
  let term =
    Term.(
      const run $ input_arg $ paper_arg $ seed_arg $ bmax_arg $ rmax_arg
      $ part_arg)
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Evaluate a saved partition against a graph and constraints. Exit \
          code 4 when a constraint is violated.")
    term

(* --- info command --- *)

let info_cmd =
  let run input paper seed =
    match resolve_input input paper seed with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok g ->
      Printf.printf "%s\n" (Wgraph.summary g);
      Printf.printf "connected: %b, components: %d\n" (Wgraph.is_connected g)
        (snd (Wgraph.components g));
      0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print summary statistics of a graph.")
    Term.(const run $ input_arg $ paper_arg $ seed_arg)

let () =
  let doc =
    "K-ways partitioning of polyhedral process networks onto multi-FPGA \
     systems (Cattaneo et al., IPDPSW 2015)"
  in
  let main =
    Cmd.group
      (Cmd.info "ppnpart" ~version:"1.0.0" ~doc)
      [
        partition_cmd; gen_cmd; experiments_cmd; simulate_cmd; eval_cmd;
        kernels_cmd; info_cmd;
      ]
  in
  exit (Cmd.eval' main)
