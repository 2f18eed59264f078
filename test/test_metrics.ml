(* Tests for the metrics layer: histogram quantile exactness,
   deterministic registry merges across task execution order and job
   counts, GC-delta sanity, the OpenMetrics exporter round-trip, the
   deterministic run report, and the bench snapshot comparator. *)

open Ppnpart_core
module Obs = Ppnpart_obs.Obs
module Span = Ppnpart_obs.Span
module H = Ppnpart_obs.Histogram
module Reg = Ppnpart_obs.Metrics_registry
module Gc_stats = Ppnpart_obs.Gc_stats
module Trace_export = Ppnpart_obs.Trace_export
module CC = Ppnpart_bench_compare.Compare_core
module Json = Ppnpart_obs.Json
module PG = Ppnpart_workloads.Paper_graphs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let hist_of values =
  let h = H.create () in
  List.iter (H.observe h) values;
  H.snapshot h

(* --- histogram quantiles: the exact small-sample cases --- *)

let test_quantile_repeated () =
  let s = hist_of [ 5.; 5.; 5. ] in
  List.iter
    (fun q -> check_float (Printf.sprintf "p%.0f of {5,5,5}" (q *. 100.)) 5. (H.quantile s q))
    [ 0.5; 0.9; 0.99 ]

let test_quantile_powers_of_two () =
  (* Powers of 2 sit exactly on bucket boundaries, so nearest-rank is
     exact: rank 2 of {1,2,4,8} is 2, rank 4 is 8. *)
  let s = hist_of [ 1.; 2.; 4.; 8. ] in
  check_float "p25" 1. (H.quantile s 0.25);
  check_float "p50" 2. (H.quantile s 0.50);
  check_float "p90" 8. (H.quantile s 0.90);
  check_float "p99" 8. (H.quantile s 0.99)

let test_quantile_single () =
  (* A lone observation is returned verbatim at every quantile (the
     bucket's lower bound is clamped to the observed min = max). *)
  let s = hist_of [ 7.3 ] in
  List.iter
    (fun q -> check_float "single" 7.3 (H.quantile s q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_quantile_nonpositive () =
  (* Non-positive values collapse into bucket 0; clamping to [min, max]
     keeps the answer inside the observed range. *)
  let s = hist_of [ 0.; 0. ] in
  check_float "all zeros" 0. (H.quantile s 0.5);
  let s' = hist_of [ -3.; 0. ] in
  let p50 = H.quantile s' 0.5 in
  check_bool "within observed range" true (p50 >= -3. && p50 <= 0.)

let test_quantile_empty () =
  let s = hist_of [] in
  check_bool "empty is nan" true (Float.is_nan (H.quantile s 0.5));
  check_bool "empty min is nan" true (Float.is_nan s.H.min)

let test_merge_is_concatenation () =
  (* Merging two histograms must be indistinguishable from observing the
     concatenated value stream (sums chosen exactly representable). *)
  let a = [ 1.; 2.; 3.; 1000.; 0.5 ] and b = [ 4.; 8.; 1e6 ] in
  let ha = H.create () and hb = H.create () in
  List.iter (H.observe ha) a;
  List.iter (H.observe hb) b;
  H.merge_into ha hb;
  let merged = H.snapshot ha and direct = hist_of (a @ b) in
  check_int "count" direct.H.count merged.H.count;
  check_float "sum" direct.H.sum merged.H.sum;
  check_float "min" direct.H.min merged.H.min;
  check_float "max" direct.H.max merged.H.max;
  check_bool "buckets" true (direct.H.buckets = merged.H.buckets)

(* --- registry: task-order folds are execution-order independent --- *)

(* Task sinks come from the one group [Obs] hands the pool; a task's
   current shard is read from its sink. *)
let shard () = Option.get (Obs.sink ()).Obs.shard

let shard_run order =
  snd
    (Obs.with_registry (fun () ->
         let g = Option.get (Obs.group 2) in
         List.iter
           (fun i ->
             Obs.in_task g i (fun () ->
                 Reg.counter_add (shard ()) "c" ((i + 1) * 10);
                 Reg.observe (shard ()) "h" (float_of_int (1 lsl (i + 1)));
                 Reg.gauge_set (shard ()) "g" (float_of_int i)))
           order;
         Obs.commit (Some g)))

let test_shard_fold_order_independent () =
  let s01 = shard_run [ 0; 1 ] and s10 = shard_run [ 1; 0 ] in
  check_bool "snapshots identical" true (s01 = s10);
  check_int "counter folded" 30 (List.assoc "c" s01.Reg.counters);
  (* Gauges fold last-writer-wins in task order: task 1 wins even when
     it executed first. *)
  check_float "gauge task-order" 1. (List.assoc "g" s01.Reg.gauges);
  let h = List.assoc "h" s01.Reg.histograms in
  check_int "histogram count" 2 h.H.count;
  check_float "histogram min" 2. h.H.min;
  check_float "histogram max" 4. h.H.max

let test_commit_keep_discards () =
  let (), s =
    Obs.with_registry (fun () ->
        let g = Option.get (Obs.group 2) in
        Obs.in_task g 0 (fun () -> Reg.counter_add (shard ()) "kc" 1);
        Obs.in_task g 1 (fun () -> Reg.counter_add (shard ()) "kc" 10);
        Obs.commit ~keep:1 (Some g))
  in
  check_int "discarded speculative shard" 1 (List.assoc "kc" s.Reg.counters)

(* --- registry merge + run report across pool widths --- *)

let gp_config =
  { Config.default with Config.coarsen_target = 30; max_cycles = 20 }

let registry_run ?(config = gp_config) ~width g c =
  Obs.install_registry ();
  let r = ref None in
  let (), _cap =
    Ppnpart_exec.Pool.with_width width (fun () ->
        Obs.with_capture ~clock:Obs.Logical (fun () ->
            r := Some (Gp.partition ~config g c)))
  in
  (Option.get !r, Option.get (Obs.finish_registry ()))

let test_registry_deterministic_across_jobs () =
  let e = PG.experiment2 in
  let g = e.PG.graph and c = e.PG.constraints in
  (* Warm-up: memo caches and lazy GC calibration allocate on first
     use; both measured runs must see the same steady state. *)
  ignore (registry_run ~width:1 g c);
  let r1, s1 = registry_run ~width:1 g c in
  let r4, s4 = registry_run ~width:4 g c in
  check_bool "partition bit-identical" true (r1.Gp.part = r4.Gp.part);
  check_bool "counters identical" true (s1.Reg.counters = s4.Reg.counters);
  let names snap = List.map fst snap.Reg.histograms in
  check_bool "histogram names identical" true (names s1 = names s4);
  List.iter2
    (fun (n, (h1 : H.snapshot)) (_, (h4 : H.snapshot)) ->
      check_int (n ^ " count") h1.H.count h4.H.count)
    s1.Reg.histograms s4.Reg.histograms;
  (* The consolidated report in deterministic mode must be
     byte-identical — quality, quantiles, per-phase rows and all. *)
  let report snap (r : Gp.result) =
    Json.to_string
      (Run_report.of_result ~deterministic:true ~algo:"gp" ~snapshot:snap g c
         r)
  in
  check_string "deterministic run report byte-identical" (report s1 r1)
    (report s4 r4)

let test_report_deterministic_wide_waves () =
  (* Above [Gp.parallel_cycle_threshold] (4096 nodes) the V-cycles run
     in waves of [Pool.width ()], and the matchings and growth attempts
     on pool domains. OCaml 5 counts minor words per domain, so a span
     around that work sees a width-dependent share; the deterministic
     report must leave allocation out. This instance turns feasible in
     its first V-cycle, so width 2 also discards a speculative cycle. *)
  let rng = Random.State.make [| 1 |] in
  let g =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(10, 50) ~ew_range:(1, 9)
      rng ~layers:50 ~width:100
  in
  check_bool "above the wave threshold" true
    (Ppnpart_graph.Wgraph.n_nodes g > 4096);
  let c = Ppnpart_partition.Types.constraints ~k:4 ~bmax:600 ~rmax:50_000 in
  let report width =
    let r, snap = registry_run ~config:Config.default ~width g c in
    check_bool "feasible after V-cycles" true
      (r.Gp.feasible && r.Gp.cycles_used > 0);
    Json.to_string
      (Run_report.of_result ~deterministic:true ~algo:"gp" ~snapshot:snap g c
         r)
  in
  let r1 = report 1 in
  check_string "report byte-identical at width 1 and 2" r1 (report 2)

(* Every report prints as JSON that [Json.parse] reads back, and
   printing the parsed document again gives the same bytes; an
   unconstrained bound reads back as null, not as a rounded float. *)
let test_report_roundtrip () =
  let e = PG.experiment2 in
  let g = e.PG.graph and c = e.PG.constraints in
  let r, snap = registry_run ~width:1 g c in
  List.iter
    (fun deterministic ->
      let text =
        Json.to_string
          (Run_report.of_result ~deterministic ~algo:"gp" ~snapshot:snap g c r)
      in
      let name = if deterministic then "deterministic" else "wall" in
      match Json.parse text with
      | Ok doc ->
        check_string (name ^ " report reprints") text (Json.to_string doc)
      | Error msg -> Alcotest.failf "%s report does not parse: %s" name msg)
    [ false; true ];
  (* Bounds read back exactly: constrained ones as integers, the
     unconstrained [max_int] as null. *)
  let bounds c r =
    let text = Json.to_string (Run_report.of_result ~algo:"gp" g c r) in
    match Json.parse text with
    | Ok doc ->
      check_string "report reprints" text (Json.to_string doc);
      let field key =
        Option.bind (Json.member "constraints" doc) (Json.member key)
      in
      (field "bmax", field "rmax")
    | Error msg -> Alcotest.failf "report does not parse: %s" msg
  in
  let module T = Ppnpart_partition.Types in
  let bmax, rmax = bounds c r in
  check_bool "constrained bmax exact" true
    (Option.bind bmax Json.to_int = Some c.T.bmax);
  check_bool "constrained rmax exact" true
    (Option.bind rmax Json.to_int = Some c.T.rmax);
  let cu = T.unconstrained ~k:c.T.k in
  let bmax, rmax = bounds cu (Gp.partition g cu) in
  check_bool "unconstrained bmax is null" true (bmax = Some Json.Null);
  check_bool "unconstrained rmax is null" true (rmax = Some Json.Null)

(* [of_result] renders from the result's certificate instead of
   sweeping the graph again; with the same arguments it must print the
   same bytes as [to_json] on the result's labels, for every way a
   result comes about: the multilevel pipeline, the streaming mode and
   an incremental repartition of an edited graph. *)
let test_report_of_certificate () =
  let e = PG.experiment2 in
  let g = e.PG.graph and c = e.PG.constraints in
  let same name g c (r : Gp.result) =
    List.iter
      (fun deterministic ->
        let direct =
          Run_report.to_json ~deterministic ~algo:"gp"
            ~runtime_s:r.Gp.runtime_s ~cycles:r.Gp.cycles_used
            ~levels:r.Gp.levels g c r.Gp.part
        in
        check_string
          (Printf.sprintf "%s (deterministic %b)" name deterministic)
          (Json.to_string direct)
          (Json.to_string (Run_report.of_result ~deterministic ~algo:"gp" g c r)))
      [ false; true ]
  in
  let ml = Gp.partition ~config:gp_config g c in
  same "multilevel" g c ml;
  same "stream" g c
    (Gp.partition ~config:{ gp_config with Config.mode = Config.Stream } g c);
  let rp =
    Gp.repartition ~prev:ml.Gp.part g c
      [ Ppnpart_partition.Graph_edit.Set_node_weight (0, 7);
        Ppnpart_partition.Graph_edit.Add_edge (1, 5, 3) ]
  in
  check_bool "incremental" true rp.Gp.rp_incremental;
  same "incremental repartition" rp.Gp.rp_graph c rp.Gp.rp_result

(* --- GC deltas --- *)

let test_gc_delta_idle_zero () =
  ignore (Gc_stats.measure (fun () -> ()) (* force calibration *));
  for _ = 1 to 5 do
    let (), d = Gc_stats.measure (fun () -> ()) in
    check_int "idle minor words" 0 d.Gc_stats.minor_words;
    check_int "idle major words" 0 d.Gc_stats.major_words;
    check_int "idle promoted words" 0 d.Gc_stats.promoted_words;
    check_int "idle minor collections" 0 d.Gc_stats.minor_collections;
    check_int "idle major collections" 0 d.Gc_stats.major_collections
  done

let test_gc_delta_counts_allocation () =
  (* 1000 cons cells = 3000 minor words; the delta must see at least
     that and stay non-negative everywhere. *)
  let r, d =
    Gc_stats.measure (fun () ->
        Sys.opaque_identity (List.init 1000 (fun i -> i)))
  in
  check_int "result intact" 1000 (List.length r);
  check_bool "minor words >= 3000" true (d.Gc_stats.minor_words >= 3000);
  check_bool "all non-negative" true
    (d.Gc_stats.minor_words >= 0
    && d.Gc_stats.major_words >= 0
    && d.Gc_stats.promoted_words >= 0
    && d.Gc_stats.minor_collections >= 0
    && d.Gc_stats.major_collections >= 0)

let test_span_records_gc () =
  let (), s =
    Obs.with_registry (fun () ->
        Span.phase "gcspan" (fun () ->
            ignore (Sys.opaque_identity (List.init 2000 (fun i -> i)))))
  in
  let h = List.assoc "gcspan.minor_words" s.Reg.histograms in
  check_int "one phase call" 1 h.H.count;
  check_bool "allocation attributed" true (h.H.sum >= 6000.)

(* --- OpenMetrics exporter --- *)

(* Minimal line-oriented reader for the OpenMetrics text format: enough
   to re-extract every series the exporter writes. *)
let parse_openmetrics text =
  let series = Hashtbl.create 32 in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.fail (Printf.sprintf "bad line %S" line)
        | Some i ->
          let key = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          (match float_of_string_opt value with
          | Some v -> Hashtbl.replace series key v
          | None -> Alcotest.fail (Printf.sprintf "bad value %S" line))
      end)
    lines;
  (series, lines)

let test_openmetrics_roundtrip () =
  let t = Reg.create () in
  Reg.counter_add t "om.count" 7;
  Reg.gauge_set t "om.gauge" 2.5;
  List.iter (Reg.observe t "om.lat") [ 1.; 2.; 4. ];
  let snap = Reg.snapshot t in
  let text = Trace_export.to_openmetrics snap in
  let series, lines = parse_openmetrics text in
  let non_empty = List.filter (fun l -> l <> "") lines in
  check_string "terminated" "# EOF" (List.nth non_empty (List.length non_empty - 1));
  let get key =
    match Hashtbl.find_opt series key with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "missing series %s" key)
  in
  check_float "counter" 7. (get "ppnpart_om_count_total");
  check_float "gauge" 2.5 (get "ppnpart_om_gauge");
  check_float "hist sum" 7. (get "ppnpart_om_lat_sum");
  check_float "hist count" 3. (get "ppnpart_om_lat_count");
  (* +Inf bucket is cumulative and must equal the count; every bucket
     series must be non-decreasing as le grows (they are emitted in
     ascending le order). *)
  check_float "+Inf bucket" 3. (get "ppnpart_om_lat_bucket{le=\"+Inf\"}");
  let buckets =
    Hashtbl.fold
      (fun k v acc ->
        if
          String.length k > 22
          && String.sub k 0 22 = "ppnpart_om_lat_bucket{"
        then v :: acc
        else acc)
      series []
  in
  check_bool "bucket counts bounded by count" true
    (List.for_all (fun v -> v >= 0. && v <= 3.) buckets);
  (* Round-trip: a metrics name survives sanitization unambiguously. *)
  check_bool "prefixed names only" true
    (List.for_all
       (fun l ->
         l = "" || l.[0] = '#'
         || String.length l > 8 && String.sub l 0 8 = "ppnpart_")
       lines)

(* --- bench snapshot comparator --- *)

let base_doc =
  {|{ "schema": "t", "a": { "cut": 10, "ok": true, "speed": 5.0 },
     "rows": [ { "name": "r1", "v": 1.0 }, { "name": "r2", "v": 2.0 } ] }|}

let regressed_doc =
  {|{ "schema": "t", "a": { "cut": 12, "ok": false, "speed": 5.0 },
     "rows": [ { "name": "r2", "v": 2.0 }, { "name": "r1", "v": 0.2 } ] }|}

let parse_ok doc =
  match Json.parse doc with
  | Ok j -> j
  | Error msg -> Alcotest.fail ("parse: " ^ msg)

let rules =
  [
    CC.lower ~pct:5. "a.cut";
    CC.stay_true "a.ok";
    CC.higher ~pct:10. "a.speed";
    CC.higher "rows.*.v";
    CC.lower "missing.path";
  ]

let test_compare_detects_regression () =
  let baseline = parse_ok base_doc and current = parse_ok regressed_doc in
  let rows = CC.compare_snapshots ~rules ~baseline ~current in
  check_bool "regression found" true (CC.has_regression rows);
  let status path =
    (List.find (fun (r : CC.row) -> r.CC.concrete = path) rows).CC.status
  in
  check_bool "cut regressed" true (status "a.cut" = CC.Regression);
  check_bool "bool regressed" true (status "a.ok" = CC.Regression);
  check_bool "speed passes" true (status "a.speed" = CC.Pass);
  (* r1 moved position but is re-identified by name and regressed. *)
  check_bool "named row regressed" true (status "rows.[r1].v" = CC.Regression);
  check_bool "stable row passes" true (status "rows.[r2].v" = CC.Pass);
  check_bool "missing path skipped" true (status "missing.path" = CC.Skipped)

let test_compare_self_is_clean () =
  let baseline = parse_ok base_doc in
  let rows = CC.compare_snapshots ~rules ~baseline ~current:baseline in
  check_bool "no regression against self" false (CC.has_regression rows)

let test_compare_parse_errors () =
  check_bool "truncated" true (Result.is_error (Json.parse "{\"a\": "));
  check_bool "trailing" true (Result.is_error (Json.parse "{} x"));
  check_bool "bare number ok" true (Json.parse "42" = Ok (Json.Num 42.))

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "repeated value" `Quick test_quantile_repeated;
          Alcotest.test_case "powers of two" `Quick
            test_quantile_powers_of_two;
          Alcotest.test_case "single observation" `Quick test_quantile_single;
          Alcotest.test_case "non-positive values" `Quick
            test_quantile_nonpositive;
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "merge = concatenation" `Quick
            test_merge_is_concatenation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "shard fold order-independent" `Quick
            test_shard_fold_order_independent;
          Alcotest.test_case "commit ~keep discards" `Quick
            test_commit_keep_discards;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_registry_deterministic_across_jobs;
          Alcotest.test_case "deterministic report above 4096 nodes" `Quick
            test_report_deterministic_wide_waves;
          Alcotest.test_case "report round-trips" `Quick
            test_report_roundtrip;
          Alcotest.test_case "report from the certificate" `Quick
            test_report_of_certificate;
        ] );
      ( "gc",
        [
          Alcotest.test_case "idle delta is zero" `Quick
            test_gc_delta_idle_zero;
          Alcotest.test_case "allocation counted" `Quick
            test_gc_delta_counts_allocation;
          Alcotest.test_case "span records GC" `Quick test_span_records_gc;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "round-trip parse" `Quick
            test_openmetrics_roundtrip;
        ] );
      ( "compare",
        [
          Alcotest.test_case "detects regression" `Quick
            test_compare_detects_regression;
          Alcotest.test_case "self-compare clean" `Quick
            test_compare_self_is_clean;
          Alcotest.test_case "parse errors" `Quick test_compare_parse_errors;
        ] );
    ]
