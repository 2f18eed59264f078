(* Snapshot regression gate: compare a committed BENCH_*.json baseline
   against a freshly generated one under the rule table matching its
   schema.

   usage: compare.exe [--rules smoke|partition] BASELINE CURRENT
          compare.exe --parse-only FILE

   exit 0 — no rule regressed (skipped rows are fine);
   exit 1 — at least one rule regressed;
   exit 2 — broken setup: unreadable file, JSON parse error, unknown
            schema, bad usage. *)

module C = Ppnpart_bench_compare.Compare_core

let die msg =
  Printf.eprintf "compare: %s\n" msg;
  exit 2

let load path =
  match Ppnpart_server.Json.parse (Ppnpart_graph.Graph_io.read_file path) with
  | Ok j -> j
  | Error msg -> die (Printf.sprintf "%s: %s" path msg)
  | exception Sys_error msg -> die msg

let usage () =
  prerr_endline
    "usage: compare.exe [--rules smoke|partition] BASELINE CURRENT\n\
    \       compare.exe --parse-only FILE";
  exit 2

let status_tag = function
  | C.Pass -> "ok  "
  | C.Regression -> "FAIL"
  | C.Skipped -> "skip"

let () =
  match Array.to_list Sys.argv with
  | [ _; "--parse-only"; path ] ->
    let j = load path in
    let schema = Option.value ~default:"?" (C.schema_of j) in
    Printf.printf "parsed %s (schema %s)\n" path schema
  | _ :: rest ->
    let named, files =
      match rest with
      | "--rules" :: name :: files -> (Some name, files)
      | files -> (None, files)
    in
    let base_path, cur_path =
      match files with [ b; c ] -> (b, c) | _ -> usage ()
    in
    let baseline = load base_path and current = load cur_path in
    let rules =
      match named with
      | Some "smoke" -> C.smoke_rules
      | Some "partition" -> C.partition_rules
      | Some other -> die (Printf.sprintf "unknown rule set %S" other)
      | None -> (
        match Option.bind (C.schema_of current) C.rules_for_schema with
        | Some rules -> rules
        | None ->
          die
            (Printf.sprintf "%s: unknown or missing schema; pass --rules"
               cur_path))
    in
    let rows = C.compare_snapshots ~rules ~baseline ~current in
    List.iter
      (fun (r : C.row) ->
        Printf.printf "%s %-55s %s\n" (status_tag r.C.status) r.C.concrete
          r.C.detail)
      rows;
    let regressions =
      List.length (List.filter (fun r -> r.C.status = C.Regression) rows)
    in
    Printf.printf "%d rules, %d regressions\n" (List.length rows) regressions;
    if regressions > 0 then exit 1
  | [] -> usage ()
