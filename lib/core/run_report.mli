(** The consolidated machine-readable run report behind [--report-json].

    One JSON document ([ppnpart-run-report/1]) unifying the partition
    quality record ({!Ppnpart_partition.Metrics.quality} — cut, pairwise
    bandwidth matrix, Bmax/Rmax excess, per-part loads, imbalance) with
    the per-phase wall-time and GC statistics accumulated in the
    {!Ppnpart_obs.Metrics_registry}: per phase, call count, total
    duration, p50/p90/p99 latency quantiles, and
    minor/major/promoted-word allocation deltas.

    The report is a {!Ppnpart_obs.Json.t}; {!Ppnpart_obs.Json.to_string}
    prints it (integers exact, other numbers with [%.12g]). Its structure
    is fully deterministic (sorted names, fixed field order). With
    [~deterministic:true], fields whose values depend on the schedule or
    heap history (wall seconds, collection counts, minor/promoted/major
    words, heap sizes) are dropped, so reports of runs under the
    {!Ppnpart_obs.Obs.Logical} clock are byte-identical at every pool
    width and graph size. *)

open Ppnpart_graph
open Ppnpart_partition

val schema : string
(** ["ppnpart-run-report/1"]. *)

val to_json :
  ?deterministic:bool ->
  ?algo:string ->
  ?runtime_s:float ->
  ?cycles:int ->
  ?levels:int ->
  ?snapshot:Ppnpart_obs.Metrics_registry.snapshot ->
  Wgraph.t ->
  Types.constraints ->
  int array ->
  Ppnpart_obs.Json.t
(** [to_json g c part] renders the report for labelling [part].
    [snapshot] defaults to empty (quality-only report). *)

val of_result :
  ?deterministic:bool ->
  ?algo:string ->
  ?snapshot:Ppnpart_obs.Metrics_registry.snapshot ->
  Wgraph.t ->
  Types.constraints ->
  Gp.result ->
  Ppnpart_obs.Json.t
(** Report for a finished {!Gp} run (runtime, cycles and level count
    taken from the result). *)

val pp_stats :
  clock:Ppnpart_obs.Obs.clock ->
  Format.formatter ->
  Ppnpart_obs.Metrics_registry.snapshot ->
  unit
(** The human-readable tables behind the CLI's [--stats], read from a
    registry snapshot: phases (calls, total, mean) from the [<name>.us]
    span histograms, sorted by descending total; counters; and sample
    histograms (count, min, mean, max). A phase's GC telemetry stays
    out of the rows. Times are in ticks when the spans were timed on the
    {!Ppnpart_obs.Obs.Logical} clock, in ms otherwise. *)
