(* Tests for the observability subsystem (Ppnpart_obs): span nesting,
   counter aggregation across the domain pool in both sinks, determinism
   of the merged trace and of the --stats tables across job counts, the
   one-slot plumbing (each sink records only what was installed, stray
   domains record nothing, daemon workers record into their own shards),
   and transparency of the disabled path. *)

open Ppnpart_graph
open Ppnpart_partition
open Ppnpart_core
module Obs = Ppnpart_obs.Obs
module Span = Ppnpart_obs.Span
module Counters = Ppnpart_obs.Counters
module Trace_export = Ppnpart_obs.Trace_export
module Reg = Ppnpart_obs.Metrics_registry
module Pool = Ppnpart_exec.Pool
module Worker_pool = Ppnpart_exec.Worker_pool
module PG = Ppnpart_workloads.Paper_graphs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let quick = Sys.getenv_opt "PPNPART_QUICK" <> None

(* --- reading the sinks --- *)

(* Trace contents, walked from the buffer tree: how many spans of a
   name were opened, and the summed deltas of a counter. *)
let fold_trace f init (cap : Obs.capture) =
  let rec walk acc buf =
    List.fold_left
      (fun acc (ev : Obs.event) ->
        match ev with Obs.Child child -> walk acc child | ev -> f acc ev)
      acc (Obs.events buf)
  in
  walk init cap.Obs.root

let span_calls cap name =
  fold_trace
    (fun n ev ->
      match ev with Obs.Begin { name = b; _ } when b = name -> n + 1 | _ -> n)
    0 cap

let trace_counter cap name =
  fold_trace
    (fun n ev ->
      match ev with
      | Obs.Count { name = c; delta; _ } when c = name -> n + delta
      | _ -> n)
    0 cap

let reg_counter (snap : Reg.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name snap.Reg.counters)

let reg_phase_calls (snap : Reg.snapshot) name =
  match List.assoc_opt (name ^ ".us") snap.Reg.histograms with
  | Some h -> h.Ppnpart_obs.Histogram.count
  | None -> 0

(* Both sinks installed around [f]. *)
let with_both ?clock f =
  Obs.install_registry ();
  match Obs.with_capture ?clock f with
  | v, cap -> (v, cap, Option.get (Obs.finish_registry ()))
  | exception e ->
    ignore (Obs.finish_registry ());
    raise e

(* --- structural invariants --- *)

(* Every buffer's Begin/End events must be balanced and well nested;
   child buffers recurse with their own fresh stack. *)
let rec check_well_nested buf =
  let depth = ref 0 in
  List.iter
    (fun (ev : Obs.event) ->
      match ev with
      | Obs.Begin _ -> incr depth
      | Obs.End _ ->
        if !depth = 0 then Alcotest.fail "End without matching Begin";
        decr depth
      | Obs.Instant _ | Obs.Count _ | Obs.Sample _ -> ()
      | Obs.Child child -> check_well_nested child)
    (Obs.events buf);
  check_int "balanced spans" 0 !depth

let test_spans_well_nested () =
  let _, cap =
    Obs.with_capture (fun () ->
        Span.with_ "outer" (fun () ->
            Span.with_ "inner" (fun () -> Counters.incr "c");
            Span.instant "marker";
            ignore
              (Pool.with_width 2 (fun () ->
                   Pool.run
                     (Array.init 4 (fun i () ->
                          Span.with_ "task" (fun () -> i * i)))))))
  in
  check_well_nested cap.Obs.root

let test_span_closes_on_exception () =
  let _, cap =
    Obs.with_capture (fun () ->
        try Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ())
  in
  check_well_nested cap.Obs.root;
  check_int "errored span still recorded" 1 (span_calls cap "boom")

let test_disabled_is_noop () =
  (* With no capture installed the instrumentation entry points must be
     inert: no state, no exceptions. *)
  check_bool "disabled" false (Obs.recording ());
  Span.with_ "nope" (fun () -> Counters.incr "nope");
  Span.instant "nope";
  Counters.sample "nope" 1.0;
  check_bool "still disabled" false (Obs.recording ())

(* --- counters across the pool --- *)

let test_counters_sum_across_pool () =
  List.iter
    (fun width ->
      let (), cap, snap =
        with_both (fun () ->
            Pool.with_width width (fun () ->
                ignore
                  (Pool.run (Array.init 16 (fun i () -> Counters.add "n" i)))))
      in
      check_int (Printf.sprintf "trace sum at width %d" width) 120
        (trace_counter cap "n");
      check_int (Printf.sprintf "registry sum at width %d" width) 120
        (reg_counter snap "n"))
    [ 1; 4 ]

let test_uncommitted_buffers_dropped () =
  (* run_deferred + commit ~keep must discard the trace and the registry
     shards (spans AND counters) of speculative tasks beyond the kept
     prefix. *)
  let (), cap, snap =
    with_both (fun () ->
        let _, deferred =
          Pool.with_width 4 (fun () ->
              Pool.run_deferred
                (Array.init 6 (fun i () ->
                     Span.with_ "spec" (fun () -> Counters.add "spec.n" 1);
                     i)))
        in
        Obs.commit ~keep:2 deferred)
  in
  check_int "only kept counters" 2 (trace_counter cap "spec.n");
  check_int "only kept spans" 2 (span_calls cap "spec");
  check_int "only kept registry counters" 2 (reg_counter snap "spec.n");
  check_int "only kept registry spans" 2 (reg_phase_calls snap "spec")

(* --- one slot: each sink records only what was installed --- *)

let sink_shape () =
  let { Obs.buf; shard } = Obs.sink () in
  (buf <> None, shard <> None)

(* The sink of the calling domain and of pool tasks on other domains. *)
let sink_shapes () =
  sink_shape ()
  :: Array.to_list
       (Pool.with_width 2 (fun () ->
            Pool.run
              (Array.init 2 (fun _ () ->
                   Counters.incr "own";
                   Span.with_ "own" sink_shape))))

let test_sinks_record_only_their_own () =
  let shapes, cap = Obs.with_capture sink_shapes in
  List.iter
    (fun shape ->
      check_bool "trace-only: buffer, no shard" true (shape = (true, false)))
    shapes;
  check_int "trace-only: counter traced" 2 (trace_counter cap "own");
  check_bool "trace-only: no registry to finish" true
    (Obs.finish_registry () = None);
  let shapes, snap = Obs.with_registry sink_shapes in
  List.iter
    (fun shape ->
      check_bool "metrics-only: shard, no buffer" true (shape = (false, true)))
    shapes;
  check_int "metrics-only: counter recorded" 2 (reg_counter snap "own");
  check_int "metrics-only: spans recorded" 2 (reg_phase_calls snap "own");
  check_bool "metrics-only: no capture to finish" true (Obs.finish () = None)

let test_stray_domain_writes_nothing () =
  (* A domain that is neither the installer nor inside a pool group has
     an empty sink: the pool tasks it runs get no group either. *)
  let recording, cap, snap =
    with_both (fun () ->
        Domain.join
          (Domain.spawn (fun () ->
               let recording = Obs.recording () in
               ignore
                 (Pool.run
                    [| (fun () ->
                         Span.with_ "stray" (fun () -> Counters.incr "stray"))
                    |]);
               recording)))
  in
  check_bool "stray domain is not recording" false recording;
  check_int "no stray span traced" 0 (span_calls cap "stray");
  check_int "no stray counter traced" 0 (trace_counter cap "stray");
  check_int "no stray counter recorded" 0 (reg_counter snap "stray");
  check_int "no stray span recorded" 0 (reg_phase_calls snap "stray")

let test_worker_shards_folded () =
  (* Long-lived workers record into their own shards; finishing the
     registry (after the pool stopped) folds them into the snapshot. *)
  let jobs = 12 in
  let (), snap =
    Obs.with_registry (fun () ->
        let pool =
          Worker_pool.create ~workers:2 ~queue_limit:jobs ~state:Fun.id
        in
        for j = 1 to jobs do
          ignore
            (Worker_pool.submit pool ~client:(j mod 3)
               ~run:(fun _ -> Span.with_ "job" (fun () -> Counters.incr "job"))
               ~finish:ignore)
        done;
        Worker_pool.stop pool)
  in
  check_int "every job counted" jobs (reg_counter snap "job");
  check_int "every job timed" jobs (reg_phase_calls snap "job")

(* --- trace determinism across pool widths --- *)

let config = { Config.default with Config.coarsen_target = 30; max_cycles = 20 }

let stats snap =
  Format.asprintf "%a" (Run_report.pp_stats ~clock:Obs.Logical) snap

(* Under the logical clock the whole exported trace (structure, virtual
   tracks, timestamps) and the --stats tables read from the registry
   must be bit-identical at every pool width. *)
let same_trace ?(max_cycles = 20) g c =
  let run width =
    Pool.with_width width (fun () ->
        with_both ~clock:Obs.Logical (fun () ->
            Gp.partition ~config:{ config with Config.max_cycles } g c))
  in
  let r1, cap1, snap1 = run 1 in
  let r4, cap4, snap4 = run 4 in
  check_bool "partition bit-identical" true (r1.Gp.part = r4.Gp.part);
  check_string "chrome trace bit-identical" (Trace_export.to_chrome cap1)
    (Trace_export.to_chrome cap4);
  check_string "jsonl bit-identical" (Trace_export.to_jsonl cap1)
    (Trace_export.to_jsonl cap4);
  check_string "stats bit-identical" (stats snap1) (stats snap4);
  (cap1, cap4)

let test_trace_deterministic_paper () =
  List.iter
    (fun (e : PG.experiment) ->
      ignore (same_trace e.PG.graph e.PG.constraints))
    PG.all

let test_trace_deterministic_forced_cycles () =
  (* bmax = 0 is infeasible, so the speculative waves really run and the
     prefix-commit logic (dropping buffers of discarded cycles) is
     exercised at width 4. *)
  let rng = Random.State.make [| 7 |] in
  let g =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(1, 9) ~ew_range:(1, 9)
      rng ~layers:12 ~width:8
  in
  (* rmax at half the total weight forbids the trivial single-part
     solution, so bmax = 0 makes the instance genuinely infeasible. *)
  let c =
    Types.constraints ~k:3 ~bmax:0 ~rmax:(Wgraph.total_node_weight g / 2)
  in
  let cap1, _ = same_trace ~max_cycles:(if quick then 6 else 20) g c in
  let has name = span_calls cap1 name > 0 in
  check_bool "has gp.cycle spans" true (has "gp.cycle");
  check_bool "has coarsen.level spans" true (has "coarsen.level");
  check_bool "has initial.attempt spans" true (has "initial.attempt");
  check_bool "has fm pass spans" true (has "refine.fm_pass")

let test_trace_deterministic_wide_waves () =
  (* Above [Gp.parallel_cycle_threshold] (4096 nodes) with a bmax no
     labelling meets, the V-cycle waves run [Pool.width ()] cycles at a
     time, so width 4 commits wave buffers that width 1 never builds. *)
  let rng = Random.State.make [| 5 |] in
  let g =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(1, 9) ~ew_range:(1, 9)
      rng ~layers:42 ~width:100
  in
  check_bool "above the wave threshold" true
    (Wgraph.n_nodes g >= 4096);
  let c =
    Types.constraints ~k:4 ~bmax:40 ~rmax:(Wgraph.total_node_weight g / 3)
  in
  let cap1, _ = same_trace ~max_cycles:3 g c in
  check_bool "has gp.cycle spans" true (span_calls cap1 "gp.cycle" > 0)

let test_stats_deterministic () =
  (* The --stats rendering under the logical clock: every phase row,
     counter and sample identical at every pool width. *)
  let e = PG.experiment2 in
  let run width =
    Pool.with_width width (fun () ->
        let _, _, snap =
          with_both ~clock:Obs.Logical (fun () ->
              Gp.partition ~config e.PG.graph e.PG.constraints)
        in
        stats snap)
  in
  let s1 = run 1 in
  check_string "stats byte-identical across widths" s1 (run 4);
  let has needle =
    let nl = String.length needle and sl = String.length s1 in
    let rec go i =
      i + nl <= sl && (String.sub s1 i nl = needle || go (i + 1))
    in
    go 0
  in
  check_bool "phase rows in ticks" true (has "total(ticks)");
  check_bool "gp.partition row" true (has "gp.partition ");
  check_bool "counter rows" true (has "metrics.report ");
  check_bool "GC telemetry stays out" false (has "minor_words")

let test_tracing_does_not_change_result () =
  (* Installing the sink must not perturb the algorithm. *)
  let e = PG.experiment1 in
  Pool.with_width 2 @@ fun () ->
  let plain = Gp.partition ~config e.PG.graph e.PG.constraints in
  let traced, _ =
    Obs.with_capture (fun () ->
        Gp.partition ~config e.PG.graph e.PG.constraints)
  in
  check_bool "same partition with and without tracing" true
    (plain.Gp.part = traced.Gp.part);
  check_bool "same history" true (plain.Gp.history = traced.Gp.history)

(* --- export format sanity --- *)

let test_chrome_trace_shape () =
  let _, cap =
    Obs.with_capture (fun () ->
        ignore (Gp.partition PG.experiment1.PG.graph PG.experiment1.PG.constraints))
  in
  let json = Trace_export.to_chrome cap in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "traceEvents envelope" true (contains "\"traceEvents\"");
  check_bool "gp.partition span present" true (contains "\"gp.partition\"");
  check_bool "has B events" true (contains "\"ph\":\"B\"");
  check_bool "has E events" true (contains "\"ph\":\"E\"");
  check_bool "report counter present" true (contains "\"metrics.report\"")

let test_string_escaping () =
  let _, cap =
    Obs.with_capture ~clock:Obs.Logical (fun () ->
        Span.instant
          ~args:(fun () -> [ ("s", Obs.Str "a\"b\\c\nd") ])
          "esc")
  in
  let json = Trace_export.to_chrome cap in
  check_bool "escaped quote" true
    (let needle = {|a\"b\\c\nd|} in
     let nl = String.length needle and jl = String.length json in
     let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
     go 0)

let test_metrics_report_counted_once () =
  (* Satellite of the CLI fix: one Gp.partition computes its report
     exactly once. *)
  let _, snap =
    Obs.with_registry (fun () ->
        ignore (Gp.partition PG.experiment1.PG.graph PG.experiment1.PG.constraints))
  in
  check_int "one report per run" 1 (reg_counter snap "metrics.report")

let () =
  Alcotest.run "obs"
    [
      ( "structure",
        [
          Alcotest.test_case "spans well nested" `Quick
            test_spans_well_nested;
          Alcotest.test_case "span closes on exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "counters sum across pool" `Quick
            test_counters_sum_across_pool;
          Alcotest.test_case "uncommitted buffers dropped" `Quick
            test_uncommitted_buffers_dropped;
          Alcotest.test_case "sinks record only their own" `Quick
            test_sinks_record_only_their_own;
          Alcotest.test_case "stray domain writes nothing" `Quick
            test_stray_domain_writes_nothing;
          Alcotest.test_case "worker shards folded at finish" `Quick
            test_worker_shards_folded;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "paper experiments" `Quick
            test_trace_deterministic_paper;
          Alcotest.test_case "forced V-cycles" `Quick
            test_trace_deterministic_forced_cycles;
          Alcotest.test_case "wide V-cycle waves" `Quick
            test_trace_deterministic_wide_waves;
          Alcotest.test_case "tracing transparent" `Quick
            test_tracing_does_not_change_result;
          Alcotest.test_case "stats rendering across widths" `Quick
            test_stats_deterministic;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace shape" `Quick
            test_chrome_trace_shape;
          Alcotest.test_case "string escaping" `Quick test_string_escaping;
          Alcotest.test_case "metrics.report counted once" `Quick
            test_metrics_report_counted_once;
        ] );
    ]
