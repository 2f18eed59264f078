(* Tests for the observability subsystem (Ppnpart_obs): span nesting,
   counter aggregation across the domain pool, determinism of the merged
   trace across job counts, and transparency of the disabled path. *)

open Ppnpart_graph
open Ppnpart_partition
open Ppnpart_core
module Obs = Ppnpart_obs.Obs
module Span = Ppnpart_obs.Span
module Counters = Ppnpart_obs.Counters
module Trace_export = Ppnpart_obs.Trace_export
module Pool = Ppnpart_exec.Pool
module PG = Ppnpart_workloads.Paper_graphs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let quick = Sys.getenv_opt "PPNPART_QUICK" <> None

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
  let spans = Trace_export.span_totals cap in
  check_bool "errored span still recorded" true
    (List.exists (fun (n, _, _) -> n = "boom") spans)

let test_disabled_is_noop () =
  (* With no capture installed the instrumentation entry points must be
     inert: no state, no exceptions. *)
  check_bool "disabled" false (Obs.enabled ());
  Span.with_ "nope" (fun () -> Counters.incr "nope");
  Span.instant "nope";
  Counters.sample "nope" 1.0;
  check_bool "still disabled" false (Obs.enabled ())

(* --- counters across the pool --- *)

let test_counters_sum_across_pool () =
  List.iter
    (fun width ->
      let _, cap =
        Obs.with_capture (fun () ->
            Pool.with_width width (fun () ->
                ignore
                  (Pool.run (Array.init 16 (fun i () -> Counters.add "n" i)))))
      in
      let total =
        match List.assoc_opt "n" (Trace_export.counter_totals cap) with
        | Some v -> v
        | None -> Alcotest.fail "counter missing"
      in
      check_int (Printf.sprintf "sum at width %d" width) 120 total)
    [ 1; 4 ]

let test_uncommitted_buffers_dropped () =
  (* run_deferred + commit ~keep must discard the trace (spans AND
     counters) of speculative tasks beyond the kept prefix. *)
  let _, cap =
    Obs.with_capture (fun () ->
        let _, deferred =
          Pool.with_width 4 (fun () ->
              Pool.run_deferred
                (Array.init 6 (fun i () ->
                     Span.with_ "spec" (fun () -> Counters.add "spec.n" 1);
                     i)))
        in
        Obs.commit ~keep:2 deferred)
  in
  check_int "only kept counters" 2
    (Option.value ~default:0
       (List.assoc_opt "spec.n" (Trace_export.counter_totals cap)));
  let _, calls, _ =
    try List.find (fun (n, _, _) -> n = "spec") (Trace_export.span_totals cap)
    with Not_found -> ("spec", 0, 0)
  in
  check_int "only kept spans" 2 calls

(* --- trace determinism across pool widths --- *)

let config = { Config.default with Config.coarsen_target = 30; max_cycles = 20 }

(* Under the logical clock the whole exported trace (structure, virtual
   tracks, timestamps) must be bit-identical at every pool width. *)
let same_trace ?(max_cycles = 20) g c =
  let run width =
    Pool.with_width width (fun () ->
        Obs.with_capture ~clock:Obs.Logical (fun () ->
            Gp.partition ~config:{ config with Config.max_cycles } g c))
  in
  let r1, cap1 = run 1 in
  let r4, cap4 = run 4 in
  check_bool "partition bit-identical" true (r1.Gp.part = r4.Gp.part);
  check_string "chrome trace bit-identical" (Trace_export.to_chrome cap1)
    (Trace_export.to_chrome cap4);
  check_string "jsonl bit-identical" (Trace_export.to_jsonl cap1)
    (Trace_export.to_jsonl cap4);
  check_string "stats bit-identical"
    (Format.asprintf "%a" Trace_export.pp_stats cap1)
    (Format.asprintf "%a" Trace_export.pp_stats cap4);
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
  let spans = Trace_export.span_totals cap1 in
  let has name = List.exists (fun (n, _, _) -> n = name) spans in
  check_bool "has gp.cycle spans" true (has "gp.cycle");
  check_bool "has coarsen.level spans" true (has "coarsen.level");
  check_bool "has initial.attempt spans" true (has "initial.attempt");
  check_bool "has fm pass spans" true (has "refine.fm_pass")

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
  let _, cap =
    Obs.with_capture (fun () ->
        ignore (Gp.partition PG.experiment1.PG.graph PG.experiment1.PG.constraints))
  in
  check_int "one report per run" 1
    (Option.value ~default:0
       (List.assoc_opt "metrics.report" (Trace_export.counter_totals cap)))

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
        ] );
      ( "determinism",
        [
          Alcotest.test_case "paper experiments" `Quick
            test_trace_deterministic_paper;
          Alcotest.test_case "forced V-cycles" `Quick
            test_trace_deterministic_forced_cycles;
          Alcotest.test_case "tracing transparent" `Quick
            test_tracing_does_not_change_result;
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
