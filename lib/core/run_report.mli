(** The consolidated machine-readable run report behind [--report-json].

    One JSON document ([ppnpart-run-report/1]) unifying the partition
    quality record ({!Ppnpart_partition.Metrics.quality} — cut, pairwise
    bandwidth matrix, Bmax/Rmax excess, per-part loads, imbalance) with
    the per-phase wall-time and GC statistics accumulated in the
    {!Ppnpart_obs.Metrics_registry}: per phase, call count, total
    duration, p50/p90/p99 latency quantiles, and
    minor/major/promoted-word allocation deltas.

    Output is fully deterministic in structure (sorted names, fixed
    number formatting). With [~deterministic:true], fields whose values
    depend on the schedule or heap history (wall seconds, collection
    counts, promoted/major words, heap sizes) are dropped, so reports of
    runs under the {!Ppnpart_obs.Obs.Logical} clock are byte-identical
    at every pool width — the property the tests pin down. *)

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
  string
(** [to_json g c part] renders the report for labelling [part].
    [snapshot] defaults to empty (quality-only report). *)

val of_result :
  ?deterministic:bool ->
  ?algo:string ->
  ?snapshot:Ppnpart_obs.Metrics_registry.snapshot ->
  Wgraph.t ->
  Types.constraints ->
  Gp.result ->
  string
(** Report for a finished {!Gp} run (runtime, cycles and level count
    taken from the result). *)
