(* Snapshot comparison for the BENCH_*.json records: a rule table
   mapping dotted paths to per-row regression thresholds, applied to
   documents read with the repository's one JSON reader, [Ppnpart_obs.Json].

   A rule names a path into the document — object fields separated by
   dots, [*] fanning out over every element of an array (elements are
   re-identified in the other snapshot by their "name" field when they
   have one, by position otherwise) — and a direction:

   - [Lower_better]  (times, cuts, violations): the current value may
     not exceed baseline * (1 + pct/100) + abs;
   - [Higher_better] (speedups, throughput): symmetric, downward;
   - [Max_abs tol]: |current - baseline| must stay within [tol];
   - [Must_stay_true]: a structural boolean (bit-identity, determinism
     across jobs, feasibility) that regresses the moment it is false —
     unless the baseline already had it false, which is recorded but
     not charged to the change under test;
   - [Never_worse_ratio tol]: an absolute gate on a same-run ratio
     field (new implementation time / reference implementation time,
     measured in the same process): the current value must stay at or
     below 1 + tol regardless of what the baseline recorded. The
     baseline only supplies the row's existence; the bound does not
     drift as baselines are refreshed.

   A path missing on either side is skipped, not failed: rows are
   added to the records over time and an old baseline must not brick
   the gate. A snapshot that does not parse is an [Error], which the
   CLI turns into exit 2 (broken setup) as opposed to exit 1 (honest
   regression). *)

module Json = Ppnpart_obs.Json

(* ------------------------------------------------------------------ *)
(* Rules.                                                              *)
(* ------------------------------------------------------------------ *)

type direction =
  | Lower_better of { pct : float; abs : float }
  | Higher_better of { pct : float; abs : float }
  | Max_abs of float
  | Must_stay_true
  | Never_worse_ratio of { tol : float }

type rule = { path : string; dir : direction }

type status = Pass | Regression | Skipped

type row = {
  rule : rule;
  concrete : string;  (** the path with [*] resolved, for reporting *)
  status : status;
  detail : string;
}

(* Expand a dotted path against [j], fanning [*] out over arrays (and,
   for symmetry, over every field of an object). Array elements carry
   the "name" field they were matched under, so the same logical row is
   re-found in the other snapshot even if its position moved. *)
type step = Field of string | Elem of int * string option

let expand path j =
  let segs = String.split_on_char '.' path in
  let rec go j rev_steps = function
    | [] -> [ (List.rev rev_steps, j) ]
    | "*" :: rest -> (
      match j with
      | Json.Arr items ->
        List.concat
          (List.mapi
             (fun i item ->
               let nm =
                 match Json.member "name" item with
                 | Some (Json.Str s) -> Some s
                 | _ -> None
               in
               go item (Elem (i, nm) :: rev_steps) rest)
             items)
      | Json.Obj fields ->
        List.concat
          (List.map
             (fun (k, v) -> go v (Field k :: rev_steps) rest)
             fields)
      | _ -> [])
    | seg :: rest -> (
      match Json.member seg j with
      | Some v -> go v (Field seg :: rev_steps) rest
      | None -> [])
  in
  go j [] segs

let resolve steps j =
  let rec go j = function
    | [] -> Some j
    | Field f :: rest -> Option.bind (Json.member f j) (fun v -> go v rest)
    | Elem (i, nm) :: rest -> (
      match j with
      | Json.Arr items -> (
        let picked =
          match nm with
          | Some name ->
            List.find_opt
              (fun item -> Json.member "name" item = Some (Json.Str name))
              items
          | None -> List.nth_opt items i
        in
        match picked with Some v -> go v rest | None -> None)
      | _ -> None)
  in
  go j steps

let concrete_of_steps steps =
  String.concat "."
    (List.map
       (function
         | Field f -> f
         | Elem (_, Some nm) -> Printf.sprintf "[%s]" nm
         | Elem (i, None) -> Printf.sprintf "[%d]" i)
       steps)

(* ------------------------------------------------------------------ *)
(* Comparison.                                                         *)
(* ------------------------------------------------------------------ *)

let check_numeric rule base cur =
  let fmt = Printf.sprintf in
  match rule.dir with
  | Lower_better { pct; abs } ->
    let limit = (base *. (1. +. (pct /. 100.))) +. abs in
    if cur > limit then
      (Regression, fmt "%.6g > allowed %.6g (baseline %.6g)" cur limit base)
    else (Pass, fmt "%.6g vs baseline %.6g" cur base)
  | Higher_better { pct; abs } ->
    let limit = (base *. (1. -. (pct /. 100.))) -. abs in
    if cur < limit then
      (Regression, fmt "%.6g < allowed %.6g (baseline %.6g)" cur limit base)
    else (Pass, fmt "%.6g vs baseline %.6g" cur base)
  | Max_abs tol ->
    if Float.abs (cur -. base) > tol then
      (Regression, fmt "|%.6g - %.6g| > %.6g" cur base tol)
    else (Pass, fmt "%.6g vs baseline %.6g" cur base)
  | Must_stay_true -> (Skipped, "boolean rule on numeric value")
  | Never_worse_ratio { tol } ->
    let limit = 1. +. tol in
    if cur > limit then
      (Regression,
       fmt "ratio %.6g > allowed %.6g (absolute bound; baseline %.6g)" cur
         limit base)
    else (Pass, fmt "ratio %.6g <= %.6g" cur limit)

let check_rule rule ~baseline ~current =
  let targets = expand rule.path baseline in
  if targets = [] then
    [
      {
        rule;
        concrete = rule.path;
        status = Skipped;
        detail = "path absent from baseline";
      };
    ]
  else
    List.map
      (fun (steps, bval) ->
        let concrete = concrete_of_steps steps in
        match resolve steps current with
        | None ->
          { rule; concrete; status = Skipped;
            detail = "path absent from current" }
        | Some cval -> (
          match (rule.dir, bval, cval) with
          | Must_stay_true, Json.Bool true, Json.Bool true ->
            { rule; concrete; status = Pass; detail = "true" }
          | Must_stay_true, Json.Bool true, _ ->
            { rule; concrete; status = Regression;
              detail = "was true in baseline, not true now" }
          | Must_stay_true, _, _ ->
            { rule; concrete; status = Skipped;
              detail = "not true in baseline" }
          | _, Json.Num b, Json.Num c ->
            let status, detail = check_numeric rule b c in
            { rule; concrete; status; detail }
          | _, _, _ ->
            { rule; concrete; status = Skipped;
              detail = "non-numeric value" }))
      targets

let compare_snapshots ~rules ~baseline ~current =
  List.concat_map (fun r -> check_rule r ~baseline ~current) rules

let has_regression rows =
  List.exists (fun r -> r.status = Regression) rows

(* ------------------------------------------------------------------ *)
(* Built-in rule tables, keyed by the snapshot's "schema" field.       *)
(* ------------------------------------------------------------------ *)

(* Structural rows (cuts, violations, determinism, bit-identity) are
   seeded-deterministic and machine-independent, so they get tight
   thresholds; wall-clock rows vary with the host and only get loose
   advisory bounds. *)
let lower ?(pct = 0.) ?(abs = 0.) path =
  { path; dir = Lower_better { pct; abs } }

let higher ?(pct = 0.) ?(abs = 0.) path =
  { path; dir = Higher_better { pct; abs } }

let stay_true path = { path; dir = Must_stay_true }

let never_worse ?(tol = 0.) path = { path; dir = Never_worse_ratio { tol } }

let smoke_rules =
  [
    lower ~pct:5. ~abs:2. "fm_600.refine_cut";
    lower "fm_600.refine_violation";
    higher ~pct:60. ~abs:0.5 "fm_600.fm_pass_speedup";
    stay_true "refine_4k.same_goodness";
    lower ~pct:5. ~abs:2. "refine_4k.cut";
    lower "refine_4k.violation";
    higher ~pct:60. ~abs:0.5 "refine_4k.speedup";
    stay_true "report_2k.report_identical_across_jobs";
    stay_true "coarsen_4k.bit_identical";
    higher ~pct:50. "coarsen_4k.alloc_ratio";
    stay_true "obs_overhead.same_partition";
    never_worse ~tol:0.18 "obs_overhead.trace_ratio";
    never_worse ~tol:0.23 "obs_overhead.metrics_ratio";
    stay_true "vcycles_5.deterministic_across_jobs";
    stay_true "stream_20k.deterministic_across_jobs";
    lower ~pct:10. ~abs:5. "stream_20k.stream_cut";
    lower "stream_20k.stream_violation";
    lower ~pct:10. ~abs:5. "hybrid_20k.hybrid_cut";
    higher ~pct:60. "ingest_8k.mb_per_s";
    stay_true "repartition_4k.incremental";
    stay_true "repartition_4k.feasible_agree";
    stay_true "repartition_4k.never_worse";
    stay_true "repartition_4k.deterministic_across_jobs";
    higher ~pct:60. ~abs:0.5 "repartition_4k.speedup";
  ]

let partition_rules =
  [
    lower ~pct:5. ~abs:2. "instances.*.cut";
    stay_true "instances.*.feasible";
    lower ~pct:100. ~abs:0.05 "instances.*.runtime_s";
    higher ~pct:60. ~abs:1. "fm_5k.fm_pass_speedup";
    lower ~pct:5. ~abs:2. "fm_5k.refine_cut";
    stay_true "refine_50k.same_goodness";
    higher ~pct:60. ~abs:0.5 "refine_50k.speedup";
    lower ~pct:5. ~abs:2. "refine_1m.cut";
    lower "refine_1m.violation";
    stay_true "coarsen_50k.bit_identical";
    higher ~pct:50. "coarsen_50k.alloc_ratio";
    stay_true "vcycles_20.deterministic_across_jobs";
    stay_true "vcycles_20.gated_small.deterministic_across_jobs";
    stay_true "obs_overhead.same_partition";
    never_worse ~tol:0.06 "obs_overhead.trace_ratio";
    never_worse ~tol:0.07 "obs_overhead.metrics_ratio";
    stay_true "stream_1m.converged";
    lower "stream_1m.violation";
    stay_true "stream_200k.deterministic_across_jobs";
    lower ~pct:25. ~abs:0.5 "stream_200k.cut_ratio";
    lower ~pct:25. ~abs:0.5 "hybrid_200k.cut_ratio";
    higher ~pct:60. "ingest_131k.mb_per_s";
    stay_true "repartition_50k.incremental";
    stay_true "repartition_50k.feasible_agree";
    stay_true "repartition_50k.never_worse";
    stay_true "repartition_50k.deterministic_across_jobs";
    higher ~pct:50. ~abs:1. "repartition_50k.speedup";
    higher ~pct:60. "daemon.req_per_s_1";
    higher ~pct:60. "daemon.req_per_s_4";
    lower ~pct:150. ~abs:5. "daemon.p99_ms_1";
    lower ~pct:150. ~abs:5. "daemon.p99_ms_4";
    higher ~pct:50. ~abs:1. "daemon.incremental_vs_scratch_speedup";
  ]

let rules_for_schema = function
  | "ppnpart-bench-smoke/1" | "ppnpart-bench-smoke/2"
  | "ppnpart-bench-smoke/3" | "ppnpart-bench-smoke/4"
  | "ppnpart-bench-smoke/5" | "ppnpart-bench-smoke/6" ->
    Some smoke_rules
  | "ppnpart-bench-partition/5" | "ppnpart-bench-partition/6"
  | "ppnpart-bench-partition/7" | "ppnpart-bench-partition/8"
  | "ppnpart-bench-partition/9" | "ppnpart-bench-partition/10"
  | "ppnpart-bench-partition/11" ->
    Some partition_rules
  | _ -> None

let schema_of j =
  match Json.member "schema" j with Some (Json.Str s) -> Some s | _ -> None
