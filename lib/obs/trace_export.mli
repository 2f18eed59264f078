(** Exporters for a finished {!Obs.capture} and a registry snapshot.

    The buffer tree is walked depth-first in emission order; every task
    buffer becomes its own virtual track (Chrome [tid] / JSONL [vt]),
    numbered in walk order. Track ids, event order, counter values and
    span structure therefore depend only on the algorithm's task
    structure — they are identical at every pool width. Timestamps
    come from the capture's clock: wall microseconds in normal runs, a
    per-buffer event counter under {!Obs.Logical} (which makes the whole
    exported string reproducible bit-for-bit). *)

val to_chrome : Obs.capture -> string
(** Chrome trace-event JSON ([{"traceEvents":[...]}]) — load the file in
    {{:https://ui.perfetto.dev}Perfetto} or [chrome://tracing]. Spans
    are B/E duration events, markers are instants, counters are "C"
    events carrying the cumulative value. *)

val to_jsonl : Obs.capture -> string
(** One JSON object per line:
    [{"ev":"begin"|"end"|"instant"|"count"|"sample"|"task", ...}]; a
    ["task"] line introduces virtual track [vt] under its parent. *)

val to_openmetrics : Metrics_registry.snapshot -> string
(** The registry snapshot in OpenMetrics text format (Prometheus
    exposition): counters as [<name>_total], gauges plain, histograms as
    cumulative [_bucket{le="..."}] series plus [_sum]/[_count],
    terminated by [# EOF]. Metric names are prefixed [ppnpart_] and
    sanitized (dots become underscores). Deterministic: metrics appear
    sorted by name. *)

val add_json_string : Buffer.t -> string -> unit
(** Appends [s] as a quoted JSON string literal (quote, backslash, [\n],
    [\r] and [\t] by name, other bytes below 0x20 as [\u00XX]): the one
    escaper of the exporters, the run report and the daemon's JSON. *)

val json_string : string -> string
(** {!add_json_string} into a fresh string. *)

val finite_float : float -> string
(** The float format of the OpenMetrics dump and the run report: [%.1f]
    for an integral value below 1e15 in magnitude, [%.17g] otherwise.
    Callers spell NaN their own way first. *)
