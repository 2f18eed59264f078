(* The blocking gate of the bench records: [Compare_core.gate] over
   [smoke_rules] must reject a document whose structural row is false
   or missing, or whose same-run ordering does not hold, and accept the
   committed record; over [partition_rules] it must accept the
   committed full record, so [json] can run it. *)

module C = Ppnpart_bench_compare.Compare_core
module Json = Ppnpart_obs.Json

let read name =
  let path = "../bench_out/BENCH_" ^ name ^ ".json" in
  match Json.parse (Ppnpart_graph.Graph_io.read_file path) with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "BENCH_%s.json: %s" name msg

let committed () = read "smoke"

(* [doc] with the field at [path] replaced by [f] of it ([None] drops
   it). *)
let rec edit path f doc =
  match (path, doc) with
  | [ key ], Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = key then Option.map (fun v -> (k, v)) (f v) else Some (k, v))
         fields)
  | key :: rest, Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) -> if k = key then (k, edit rest f v) else (k, v))
         fields)
  | _ -> Alcotest.fail "edit: not an object"

let failures ?(rules = C.smoke_rules) doc =
  List.filter_map
    (fun (r : C.row) ->
      if r.C.status = C.Pass then None else Some r.C.concrete)
    (C.gate ~rules doc)

let check_rejects name expected doc =
  Alcotest.(check (list string)) name [ expected ] (failures doc)

let row = [ "vcycles_5"; "deterministic_across_jobs" ]

let test_false_row () =
  check_rejects "false row rejected" "vcycles_5.deterministic_across_jobs"
    (edit row (fun _ -> Some (Json.Bool false)) (committed ()))

let test_missing_row () =
  check_rejects "missing row rejected" "vcycles_5.deterministic_across_jobs"
    (edit row (fun _ -> None) (committed ()))

let test_ordering () =
  (* Boundary refine measured slower than the legacy path. *)
  check_rejects "ordering rejected" "refine_4k.boundary_refine_s"
    (edit [ "refine_4k"; "boundary_refine_s" ]
       (fun _ -> Some (Json.Num 1.))
       (committed ()))

(* A diverging refiner writes its row with [same_goodness: false] and
   a [diverged] field instead of crashing; the gate must reject it. *)
let test_diverged_refine () =
  check_rejects "diverged refine row rejected" "refine_4k.same_goodness"
    (edit [ "refine_4k"; "same_goodness" ]
       (fun _ -> Some (Json.Bool false))
       (edit [ "refine_4k" ]
          (function
            | Json.Obj fields ->
              Some (Json.Obj (fields @ [ ("diverged", Json.Str "cut") ]))
            | v -> Some v)
          (committed ())))

let test_committed_partition () =
  let doc = read "partition" in
  Alcotest.(check (list string))
    "committed full record accepted" []
    (failures ~rules:C.partition_rules doc)

let test_committed () =
  let doc = committed () in
  Alcotest.(check (list string)) "committed record accepted" [] (failures doc);
  Alcotest.(check bool)
    "gate has rows" true
    (C.gate ~rules:C.smoke_rules doc <> [])

let () =
  Alcotest.run "bench_gate"
    [
      ( "gate",
        [
          Alcotest.test_case "rejects a false row" `Quick test_false_row;
          Alcotest.test_case "rejects a missing row" `Quick test_missing_row;
          Alcotest.test_case "rejects a broken ordering" `Quick test_ordering;
          Alcotest.test_case "rejects a diverged refine row" `Quick
            test_diverged_refine;
          Alcotest.test_case "accepts the committed record" `Quick
            test_committed;
          Alcotest.test_case "accepts the committed full record" `Quick
            test_committed_partition;
        ] );
    ]
