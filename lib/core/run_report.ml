(* The consolidated machine-readable run report behind --report-json:
   one JSON document unifying the partition-quality record
   (Metrics.quality — the same record behind goodness, the CLI tables
   and bench rows) with the per-phase wall/GC statistics accumulated in
   the metrics registry.

   Everything is emitted in sorted, fixed order with deterministic
   number formatting, so two runs that observed the same values produce
   byte-identical documents. [~deterministic:true] additionally drops
   every field whose value is schedule- or heap-history-dependent (wall
   seconds, collection counts, promoted/major words, heap sizes),
   leaving a document that is byte-identical at every pool width for the
   gated-small graphs the tests use. *)

open Ppnpart_graph
open Ppnpart_partition
module Obs = Ppnpart_obs

let schema = "ppnpart-run-report/1"

let js = Ppnpart_obs.Trace_export.json_string

let jfloat f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let jint_array a =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]"

let jmatrix m =
  "[" ^ String.concat "," (List.map jint_array (Array.to_list m)) ^ "]"

(* Registry names that depend on heap history or schedule, not on the
   algorithm: excluded under [~deterministic]. *)
let nondeterministic_name name =
  let suffixed s = Filename.check_suffix name s in
  suffixed ".major_words" || suffixed ".promoted_words"
  || suffixed ".minor_collections"
  || suffixed ".major_collections"
  || name = "gc.heap_words"

type phase = {
  name : string;
  us : Obs.Histogram.snapshot;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* Group registry entries into per-phase rows: every [<name>.us]
   histogram is a phase; its GC histograms/counters are matched by
   prefix. *)
let phases_of_snapshot (snap : Obs.Metrics_registry.snapshot) =
  let hist_sum name =
    match List.assoc_opt name snap.histograms with
    | Some (h : Obs.Histogram.snapshot) -> h.sum
    | None -> 0.
  in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.counters)
  in
  List.filter_map
    (fun (name, h) ->
      if not (Filename.check_suffix name ".us") then None
      else
        let p = Filename.chop_suffix name ".us" in
        Some
          {
            name = p;
            us = h;
            minor_words = hist_sum (p ^ ".minor_words");
            major_words = hist_sum (p ^ ".major_words");
            promoted_words = hist_sum (p ^ ".promoted_words");
            minor_collections = counter (p ^ ".minor_collections");
            major_collections = counter (p ^ ".major_collections");
          })
    snap.histograms

let quantiles_json (h : Obs.Histogram.snapshot) =
  Printf.sprintf "\"p50\":%s,\"p90\":%s,\"p99\":%s"
    (jfloat (Obs.Histogram.quantile h 0.50))
    (jfloat (Obs.Histogram.quantile h 0.90))
    (jfloat (Obs.Histogram.quantile h 0.99))

let phase_json ~deterministic p =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\":%s,\"calls\":%d,\"total_us\":%s,%s" (js p.name)
       p.us.count (jfloat p.us.sum) (quantiles_json p.us));
  Buffer.add_string b
    (Printf.sprintf ",\"minor_words\":%s" (jfloat p.minor_words));
  if not deterministic then
    Buffer.add_string b
      (Printf.sprintf
         ",\"major_words\":%s,\"promoted_words\":%s,\"minor_collections\":%d,\"major_collections\":%d"
         (jfloat p.major_words)
         (jfloat p.promoted_words)
         p.minor_collections p.major_collections);
  Buffer.add_char b '}';
  Buffer.contents b

let hist_json (h : Obs.Histogram.snapshot) =
  Printf.sprintf "{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,%s}" h.count
    (jfloat h.sum) (jfloat h.min) (jfloat h.max) (quantiles_json h)

let to_json ?(deterministic = false) ?(algo = "multilevel") ?runtime_s
    ?cycles ?levels ?(snapshot = Obs.Metrics_registry.empty_snapshot) g
    (c : Types.constraints) part =
  let q = Metrics.quality g c part in
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"schema\":%s,\"algo\":%s" (js schema) (js algo);
  add ",\"graph\":{\"nodes\":%d,\"edges\":%d}" (Wgraph.n_nodes g)
    (Wgraph.n_edges g);
  add ",\"constraints\":{\"k\":%d,\"bmax\":%d,\"rmax\":%d}" c.Types.k
    c.Types.bmax c.Types.rmax;
  (match runtime_s with
  | Some t when not deterministic -> add ",\"runtime_s\":%s" (jfloat t)
  | _ -> ());
  (match cycles with Some n -> add ",\"cycles\":%d" n | None -> ());
  (match levels with Some n -> add ",\"levels\":%d" n | None -> ());
  add
    ",\"quality\":{\"cut\":%d,\"max_bandwidth\":%d,\"bandwidth_ok\":%b,\"bw_excess\":%d,\"max_resources\":%d,\"resource_ok\":%b,\"res_excess\":%d,\"feasible\":%b,\"imbalance\":%s,\"loads\":%s,\"bandwidth_matrix\":%s}"
    q.Metrics.cut q.Metrics.max_bandwidth
    (q.Metrics.bw_excess = 0)
    q.Metrics.bw_excess q.Metrics.max_resources
    (q.Metrics.res_excess = 0)
    q.Metrics.res_excess
    (q.Metrics.bw_excess = 0 && q.Metrics.res_excess = 0)
    (jfloat q.Metrics.imbalance)
    (jint_array q.Metrics.loads)
    (jmatrix q.Metrics.bandwidth);
  let keep name = not (deterministic && nondeterministic_name name) in
  let phases = phases_of_snapshot snapshot in
  add ",\"phases\":[%s]"
    (String.concat ","
       (List.map (phase_json ~deterministic) phases));
  add ",\"counters\":{%s}"
    (String.concat ","
       (List.filter_map
          (fun (name, v) ->
            if keep name then Some (Printf.sprintf "%s:%d" (js name) v)
            else None)
          snapshot.counters));
  add ",\"gauges\":{%s}"
    (String.concat ","
       (List.filter_map
          (fun (name, v) ->
            if keep name then
              Some (Printf.sprintf "%s:%s" (js name) (jfloat v))
            else None)
          snapshot.gauges));
  add ",\"histograms\":{%s}"
    (String.concat ","
       (List.filter_map
          (fun (name, h) ->
            if keep name then
              Some (Printf.sprintf "%s:%s" (js name) (hist_json h))
            else None)
          snapshot.histograms));
  add "}";
  Buffer.contents b

let of_result ?deterministic ?algo ?snapshot g c (r : Gp.result) =
  to_json ?deterministic ?algo ~runtime_s:r.Gp.runtime_s
    ~cycles:r.Gp.cycles_used ~levels:r.Gp.levels ?snapshot g c r.Gp.part
