(** Rule-driven comparison of two BENCH_*.json snapshots.

    Backs the [compare.exe] CLI behind the [@bench-compare] alias:
    per-row regression thresholds keyed by dotted paths, applied to
    documents read with {!Ppnpart_obs.Json.parse}. Structural rows
    (cuts, determinism booleans) are seeded-deterministic across
    machines and gate tightly; wall-clock rows get loose advisory
    bounds. Paths missing from either snapshot are skipped so an old
    baseline never bricks the gate. *)

type direction =
  | Lower_better of { pct : float; abs : float }
      (** current may not exceed baseline * (1 + pct/100) + abs *)
  | Higher_better of { pct : float; abs : float }
      (** current may not fall below baseline * (1 - pct/100) - abs *)
  | Max_abs of float  (** |current - baseline| must stay within *)
  | Must_stay_true
      (** boolean row; regression the moment a baseline-true value is
          no longer true *)
  | Never_worse_ratio of { tol : float }
      (** same-run ratio row (new time / reference time, measured in
          one process): current must stay at or below [1 + tol],
          independent of the baseline's value — the baseline only
          establishes that the row exists, so the bound cannot drift
          as baselines are refreshed. A negative [tol] demands the new
          path beat the reference by a margin ("faster than", not
          "never worse than"). *)
  | At_most of { than : string; factor : float }
      (** ordering inside one snapshot: the value at [path] may not
          exceed [factor] times the value at [than] (a dotted path
          without [*]) in the same document. Like [Never_worse_ratio]
          it ignores the baseline's value. *)

type rule = { path : string; dir : direction }
(** [path] is dot-separated; a [*] segment fans out over every array
    element (re-identified in the other snapshot by its "name" field
    when present, by position otherwise). *)

type status = Pass | Regression | Skipped

type row = {
  rule : rule;
  concrete : string;
  status : status;
  detail : string;
}

val compare_snapshots :
  rules:rule list ->
  baseline:Ppnpart_obs.Json.t ->
  current:Ppnpart_obs.Json.t ->
  row list

val has_regression : row list -> bool

val gate : rules:rule list -> Ppnpart_obs.Json.t -> row list
(** The blocking check of one document: every [Must_stay_true] and
    [At_most] rule of [rules] evaluated on it alone. A boolean that is
    not [true], an ordering that does not hold, and a path that is
    missing are all [Regression]s; other directions yield no rows. *)

val lower : ?pct:float -> ?abs:float -> string -> rule
val higher : ?pct:float -> ?abs:float -> string -> rule
val stay_true : string -> rule
val never_worse : ?tol:float -> string -> rule
val at_most : ?factor:float -> string -> than:string -> rule
(** [factor] defaults to 1. *)

val smoke_rules : rule list
val partition_rules : rule list

val rules_for_schema : string -> rule list option
(** Built-in rule table for a snapshot's "schema" value, if known. *)

val schema_of : Ppnpart_obs.Json.t -> string option
