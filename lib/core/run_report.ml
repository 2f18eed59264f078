(* The consolidated machine-readable run report behind --report-json:
   one JSON document unifying the partition-quality record
   (Metrics.quality — the same record behind goodness, the CLI tables
   and bench rows) with the per-phase wall/GC statistics accumulated in
   the metrics registry. It is built as a [Json.t] and printed by
   [Json]'s one printer, like every other document the repository
   writes.

   Everything is emitted in sorted, fixed order, so two runs that
   observed the same values produce byte-identical documents.
   [~deterministic:true] additionally drops every field whose value is
   schedule- or heap-history-dependent (wall seconds, collection counts,
   minor/promoted/major words, heap sizes), leaving a document that is
   byte-identical at every pool width. Minor words belong on that list
   because OCaml 5 counts them per domain: a span opened around work
   that runs on pool domains sees only its own domain's share. *)

open Ppnpart_graph
open Ppnpart_partition
module Obs = Ppnpart_obs
module Json = Ppnpart_obs.Json

let schema = "ppnpart-run-report/1"

(* Registry names that depend on heap history or schedule, not on the
   algorithm: excluded under [~deterministic]. *)
let nondeterministic_name name =
  let suffixed s = Filename.check_suffix name s in
  suffixed ".minor_words" || suffixed ".major_words"
  || suffixed ".promoted_words"
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

(* --- the --stats tables --- *)

(* A phase's GC telemetry ([Span.phase]): registry-only names, kept out
   of the --stats rows, which list what the trace records. *)
let gc_telemetry (snap : Obs.Metrics_registry.snapshot) name =
  List.exists
    (fun s ->
      Filename.check_suffix name s
      && List.mem_assoc (Filename.chop_suffix name s ^ ".us") snap.histograms)
    [ ".minor_words"; ".major_words"; ".promoted_words";
      ".minor_collections"; ".major_collections" ]

let pp_stats ~clock ppf (snap : Obs.Metrics_registry.snapshot) =
  let logical = clock = Obs.Obs.Logical in
  let unit_hdr = if logical then "ticks" else "ms" in
  let fmt_time t =
    if logical then string_of_int (int_of_float t)
    else Printf.sprintf "%.3f" (t /. 1000.)
  in
  let phases =
    List.map (fun p -> (p.name, p.us.count, p.us.sum)) (phases_of_snapshot snap)
    |> List.sort (fun (n1, _, t1) (n2, _, t2) ->
           match Float.compare t2 t1 with 0 -> String.compare n1 n2 | c -> c)
  in
  let counters =
    List.filter (fun (name, _) -> not (gc_telemetry snap name)) snap.counters
  in
  let samples =
    List.filter
      (fun (name, _) ->
        not (Filename.check_suffix name ".us" || gc_telemetry snap name))
      snap.histograms
  in
  Format.fprintf ppf "%-36s %8s %14s %14s@." "phase" "calls"
    ("total(" ^ unit_hdr ^ ")")
    ("mean(" ^ unit_hdr ^ ")");
  List.iter
    (fun (name, count, total) ->
      let mean =
        if logical then string_of_int (int_of_float total / max 1 count)
        else
          Printf.sprintf "%.3f" (total /. 1000. /. float_of_int (max 1 count))
      in
      Format.fprintf ppf "%-36s %8d %14s %14s@." name count (fmt_time total)
        mean)
    phases;
  if counters <> [] then begin
    Format.fprintf ppf "@.%-36s %14s@." "counter" "value";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "%-36s %14d@." name v)
      counters
  end;
  if samples <> [] then begin
    Format.fprintf ppf "@.%-36s %8s %10s %10s %10s@." "histogram" "count"
      "min" "mean" "max";
    List.iter
      (fun (name, (h : Obs.Histogram.snapshot)) ->
        Format.fprintf ppf "%-36s %8d %10.3f %10.3f %10.3f@." name h.count
          h.min
          (h.sum /. float_of_int h.count)
          h.max)
      samples
  end

(* Non-finite values (the quantiles of an empty histogram) are null. *)
let num f = if Float.is_finite f then Json.Num f else Json.Null

let quantiles (h : Obs.Histogram.snapshot) =
  [ ("p50", num (Obs.Histogram.quantile h 0.50));
    ("p90", num (Obs.Histogram.quantile h 0.90));
    ("p99", num (Obs.Histogram.quantile h 0.99)) ]

let phase_json ~deterministic p =
  Json.Obj
    ([ ("name", Json.Str p.name);
       ("calls", Json.int p.us.count);
       ("total_us", num p.us.sum) ]
    @ quantiles p.us
    @
    if deterministic then []
    else
      [ ("minor_words", num p.minor_words);
        ("major_words", num p.major_words);
        ("promoted_words", num p.promoted_words);
        ("minor_collections", Json.int p.minor_collections);
        ("major_collections", Json.int p.major_collections) ])

let hist_json (h : Obs.Histogram.snapshot) =
  Json.Obj
    ([ ("count", Json.int h.count);
       ("sum", num h.sum);
       ("min", num h.min);
       ("max", num h.max) ]
    @ quantiles h)

let ints a = Json.Arr (List.map Json.int (Array.to_list a))

let to_json ?(deterministic = false) ?(algo = "multilevel") ?runtime_s
    ?cycles ?levels ?(snapshot = Obs.Metrics_registry.empty_snapshot) g
    (c : Types.constraints) part =
  let q = Metrics.quality g c part in
  let keep name = not (deterministic && nondeterministic_name name) in
  let named value entries =
    Json.Obj
      (List.filter_map
         (fun (name, v) -> if keep name then Some (name, value v) else None)
         entries)
  in
  let optional key = function
    | Some n -> [ (key, Json.int n) ]
    | None -> []
  in
  Json.Obj
    ([ ("schema", Json.Str schema);
       ("algo", Json.Str algo);
       ( "graph",
         Json.Obj
           [ ("nodes", Json.int (Wgraph.n_nodes g));
             ("edges", Json.int (Wgraph.n_edges g)) ] );
       ( "constraints",
         Json.Obj
           [ ("k", Json.int c.Types.k);
             ("bmax", Json.int c.Types.bmax);
             ("rmax", Json.int c.Types.rmax) ] ) ]
    @ (match runtime_s with
      | Some t when not deterministic -> [ ("runtime_s", num t) ]
      | _ -> [])
    @ optional "cycles" cycles
    @ optional "levels" levels
    @ [ ( "quality",
          Json.Obj
            [ ("cut", Json.int q.Metrics.cut);
              ("max_bandwidth", Json.int q.Metrics.max_bandwidth);
              ("bandwidth_ok", Json.Bool (q.Metrics.bw_excess = 0));
              ("bw_excess", Json.int q.Metrics.bw_excess);
              ("max_resources", Json.int q.Metrics.max_resources);
              ("resource_ok", Json.Bool (q.Metrics.res_excess = 0));
              ("res_excess", Json.int q.Metrics.res_excess);
              ( "feasible",
                Json.Bool (q.Metrics.bw_excess = 0 && q.Metrics.res_excess = 0)
              );
              ("imbalance", num q.Metrics.imbalance);
              ("loads", ints q.Metrics.loads);
              ( "bandwidth_matrix",
                Json.Arr (List.map ints (Array.to_list q.Metrics.bandwidth)) )
            ] );
        ( "phases",
          Json.Arr
            (List.map (phase_json ~deterministic) (phases_of_snapshot snapshot))
        );
        ("counters", named Json.int snapshot.counters);
        ("gauges", named num snapshot.gauges);
        ("histograms", named hist_json snapshot.histograms) ])

let of_result ?deterministic ?algo ?snapshot g c (r : Gp.result) =
  to_json ?deterministic ?algo ~runtime_s:r.Gp.runtime_s
    ~cycles:r.Gp.cycles_used ~levels:r.Gp.levels ?snapshot g c r.Gp.part
