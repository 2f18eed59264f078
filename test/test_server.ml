(* Tests for the daemon stack: Json, Protocol, Worker_pool, Service and
   an in-process end-to-end Daemon round trip (DESIGN.md §6.7). *)

open Ppnpart_graph
open Ppnpart_partition
module Json = Ppnpart_server.Json
module Protocol = Ppnpart_server.Protocol
module Service = Ppnpart_server.Service
module Daemon = Ppnpart_server.Daemon
module Worker_pool = Ppnpart_exec.Worker_pool
module Config = Ppnpart_core.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let strip_runtime line =
  (* runtime_s is wall-clock by design; blank its value out before
     comparing responses byte for byte. *)
  let marker = "\"runtime_s\":" in
  match String.index_opt line 'r' with
  | None -> line
  | Some _ -> (
    let nl = String.length line and nm = String.length marker in
    let rec find i =
      if i + nm > nl then None
      else if String.sub line i nm = marker then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> line
    | Some i ->
      let j = ref (i + nm) in
      while !j < nl && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      String.sub line 0 (i + nm) ^ "_" ^ String.sub line !j (nl - !j))

(* A report value printed without its wall-clock runtime_s. *)
let without_runtime = function
  | Json.Obj fields ->
    Json.to_string (Json.Obj (List.remove_assoc "runtime_s" fields))
  | v -> Json.to_string v

(* --- Json --- *)

let test_json_roundtrip () =
  let cases =
    [ "null"; "true"; "false"; "0"; "-17"; "3.5"; "\"\"";
      "\"a b\\\"c\\\\d\""; "[]"; "[1,2,3]"; "{}";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}" ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok v ->
        let s' = Json.to_string v in
        (match Json.parse s' with
        | Error e -> Alcotest.failf "reparse %S: %s" s' e
        | Ok v' -> check_bool (Printf.sprintf "roundtrip %S" s) true (v = v')))
    cases

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "nul"; "{\"a\"}"; "{\"a\":1} trailing"; "'single'";
      "{\"a\":01}" ]

let test_json_numbers () =
  (match Json.parse "1073741824" with
  | Ok (Json.Num f) -> check_int "big int survives" 1073741824 (int_of_float f)
  | _ -> Alcotest.fail "1073741824 did not parse as Num");
  check_string "int prints without dot" "42" (Json.to_string (Json.int 42));
  check_string "negative int" "-7" (Json.to_string (Json.int (-7)))

let test_json_string_escapes () =
  match Json.parse "\"tab\\tnl\\nu\\u0041\"" with
  | Ok (Json.Str s) -> check_string "escapes decoded" "tab\tnl\nuA" s
  | _ -> Alcotest.fail "escaped string did not parse"

(* The integer fast path in the printer must write the bytes "%.0f"
   wrote before it; everything else still goes through "%.12g". *)
let test_json_printer_bytes () =
  List.iter
    (fun (f, expect) ->
      check_string (Printf.sprintf "%h" f) expect (Json.to_string (Json.Num f)))
    [ (0., "0"); (-0., "-0"); (1., "1"); (-1., "-1");
      (9007199254740992., "9007199254740992");
      (-9007199254740992., "-9007199254740992");
      (9007199254740994., "9.00719925474e+15"); (0.5, "0.5");
      (1e300, "1e+300"); (3.25, "3.25"); (-1.5, "-1.5"); (0.1, "0.1");
      (1. /. 3., "0.333333333333"); (123456.789, "123456.789") ]

let max_exact = 1 lsl 53

let prop_json_int_roundtrip =
  QCheck2.Test.make ~name:"json int prints as %.0f and round-trips"
    ~count:2000
    QCheck2.Gen.(
      oneof
        [ int_range (-max_exact) max_exact; int_range (-1000) 1000;
          oneofl [ max_exact; -max_exact; max_exact - 1; 1 - max_exact ] ])
    (fun i ->
      let s = Json.to_string (Json.int i) in
      let b = Buffer.create 24 in
      Json.add_int_array b [| i; -i |];
      s = Printf.sprintf "%.0f" (float_of_int i)
      && Buffer.contents b
         = Printf.sprintf "[%s,%s]" s (Json.to_string (Json.int (-i)))
      && Result.to_option (Json.parse s) |> Fun.flip Option.bind Json.to_int
         = Some i)

let nested depth = String.make depth '[' ^ String.make depth ']'

let test_json_nesting_bound () =
  (match Json.parse (nested 64) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "64 levels rejected: %s" e);
  (match Json.parse (nested 65) with
  | Error e -> check_string "65 levels" "nesting deeper than 64 at byte 64" e
  | Ok _ -> Alcotest.fail "65 levels accepted");
  match Json.parse ("{\"a\":" ^ nested 64 ^ "}") with
  | Error e ->
    check_string "object counts" "nesting deeper than 64 at byte 68" e
  | Ok _ -> Alcotest.fail "65 levels through an object accepted"

(* --- Protocol --- *)

let test_protocol_parse_ok () =
  (match Protocol.parse "{\"op\":\"stats\",\"id\":7}" with
  | Some (Json.Num 7.0), Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats with id");
  (match Protocol.parse "{\"op\":\"shutdown\"}" with
  | None, Ok Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown");
  let frame extra =
    "{\"op\":\"partition\",\"graph\":\"g\",\"k\":3,\"rmax\":9,\"seed\":5"
    ^ extra ^ "}"
  in
  let plain = Protocol.parse (frame "") in
  (match plain with
  | _, Ok (Protocol.Partition { graph = "g"; c; mode; seed = 5 }) ->
    check_int "k" 3 c.Types.k;
    check_int "rmax" 9 c.Types.rmax;
    check_int "bmax default" max_int c.Types.bmax;
    check_bool "mode default" true (mode = Config.Multilevel)
  | _ -> Alcotest.fail "partition defaults");
  (* Frames from clients that still send the removed [jobs] or
     [stream_jobs] fields — including the once-rejected negative values —
     parse to the same command: unknown fields are ignored. *)
  List.iter
    (fun extra ->
      check_bool
        (Printf.sprintf "partition%s = partition" extra)
        true
        (Protocol.parse (frame extra) = plain))
    [ ",\"stream_jobs\":4"; ",\"stream_jobs\":-1"; ",\"jobs\":4";
      ",\"jobs\":-1" ]

let test_protocol_parse_edits () =
  match
    Protocol.parse
      ("{\"op\":\"repartition\",\"graph\":\"g\",\"edits\":["
      ^ "{\"op\":\"add_node\",\"weight\":2,\"neighbors\":[[0,1],[3,4]]},"
      ^ "{\"op\":\"remove_node\",\"node\":1},"
      ^ "{\"op\":\"add_edge\",\"u\":0,\"v\":2,\"w\":5},"
      ^ "{\"op\":\"remove_edge\",\"u\":2,\"v\":3},"
      ^ "{\"op\":\"set_node_weight\",\"node\":0,\"w\":9},"
      ^ "{\"op\":\"set_edge_weight\",\"u\":0,\"v\":2,\"w\":1}]}")
  with
  | _, Ok (Protocol.Repartition { graph = "g"; edits }) ->
    let names = List.map Graph_edit.op_name edits in
    Alcotest.(check (list string))
      "all six op kinds parse"
      [ "add_node"; "remove_node"; "add_edge"; "remove_edge";
        "set_node_weight"; "set_edge_weight" ]
      names
  | _ -> Alcotest.fail "edit batch did not parse"

let test_protocol_parse_errors () =
  let err line =
    match Protocol.parse line with
    | _, Error _ -> ()
    | _, Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" line
  in
  err "not json";
  err "{\"op\":\"frobnicate\"}";
  err "{\"id\":1}";
  err "{\"op\":\"partition\",\"graph\":\"g\"}";
  (* no k *)
  err "{\"op\":\"partition\",\"graph\":\"g\",\"k\":0}";
  err "{\"op\":\"repartition\",\"graph\":\"g\",\"edits\":[{\"op\":\"bogus\"}]}";
  (* id still recovered from a malformed request *)
  match Protocol.parse "{\"id\":42,\"op\":\"frobnicate\"}" with
  | Some (Json.Num 42.0), Error _ -> ()
  | _ -> Alcotest.fail "id not recovered from bad request"

let test_protocol_frames () =
  check_string "ok frame" "{\"ok\":true,\"n\":3}"
    (Protocol.ok [ ("n", Json.int 3) ]);
  check_string "error frame with id"
    "{\"ok\":false,\"id\":9,\"error\":\"boom\"}"
    (Protocol.error ~id:(Json.int 9) "boom");
  check_string "buffer splice" "{\"ok\":true,\"a\":1,\"r\":[2,-3]}"
    (Protocol.ok_with [ ("a", Json.int 1) ]
       ("r", fun b -> Json.add_int_array b [| 2; -3 |]))

(* --- Worker_pool --- *)

let test_pool_per_client_order () =
  let pool =
    Worker_pool.create ~workers:4 ~queue_limit:64 ~state:(fun i -> i)
  in
  let lock = Mutex.create () in
  let done_cond = Condition.create () in
  let remaining = ref 0 in
  let out = Hashtbl.create 4 in
  let jobs_per_client = 25 in
  for client = 0 to 3 do
    Hashtbl.replace out client [];
    for j = 0 to jobs_per_client - 1 do
      Mutex.lock lock;
      incr remaining;
      Mutex.unlock lock;
      match
        Worker_pool.submit pool ~client
          ~run:(fun _ -> j)
          ~finish:(fun r ->
            Mutex.lock lock;
            (match r with
            | Ok v -> Hashtbl.replace out client (v :: Hashtbl.find out client)
            | Error _ -> ());
            decr remaining;
            if !remaining = 0 then Condition.broadcast done_cond;
            Mutex.unlock lock)
      with
      | `Accepted -> ()
      | `Overloaded | `Stopped -> Alcotest.fail "submit refused"
    done
  done;
  Mutex.lock lock;
  while !remaining > 0 do
    Condition.wait done_cond lock
  done;
  Mutex.unlock lock;
  Worker_pool.stop pool;
  for client = 0 to 3 do
    Alcotest.(check (list int))
      (Printf.sprintf "client %d finishes in submission order" client)
      (List.init jobs_per_client (fun j -> jobs_per_client - 1 - j))
      (Hashtbl.find out client)
  done

let test_pool_overload_and_stop () =
  let pool = Worker_pool.create ~workers:1 ~queue_limit:2 ~state:(fun _ -> ()) in
  let gate = Mutex.create () in
  let release = Condition.create () in
  let go = ref false in
  let started = ref false in
  (* First job blocks the lone worker so the client queue fills up;
     it signals once it is actually off the queue and running. *)
  let blocker () =
    Mutex.lock gate;
    started := true;
    Condition.broadcast release;
    while not !go do
      Condition.wait release gate
    done;
    Mutex.unlock gate
  in
  let submit run =
    Worker_pool.submit pool ~client:1 ~run ~finish:(fun _ -> ())
  in
  check_bool "blocker accepted" true (submit blocker = `Accepted);
  Mutex.lock gate;
  while not !started do
    Condition.wait release gate
  done;
  Mutex.unlock gate;
  check_bool "q1 accepted" true (submit (fun _ -> ()) = `Accepted);
  check_bool "q2 accepted" true (submit (fun _ -> ()) = `Accepted);
  check_bool "q3 refused" true (submit (fun _ -> ()) = `Overloaded);
  Mutex.lock gate;
  go := true;
  Condition.broadcast release;
  Mutex.unlock gate;
  Worker_pool.stop pool;
  check_bool "post-stop refused" true (submit (fun _ -> ()) = `Stopped);
  check_int "drained" 0 (Worker_pool.pending pool)

let test_pool_exceptions_reach_finish () =
  let pool = Worker_pool.create ~workers:2 ~queue_limit:8 ~state:(fun _ -> ()) in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let got = ref None in
  (match
     Worker_pool.submit pool ~client:0
       ~run:(fun _ -> failwith "kaboom")
       ~finish:(fun r ->
         Mutex.lock lock;
         got := Some r;
         Condition.broadcast cond;
         Mutex.unlock lock)
   with
  | `Accepted -> ()
  | _ -> Alcotest.fail "submit refused");
  Mutex.lock lock;
  while !got = None do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Worker_pool.stop pool;
  match !got with
  | Some (Error (Failure msg)) when msg = "kaboom" -> ()
  | _ -> Alcotest.fail "exception did not reach finish as Error"

(* --- Service --- *)

let metis_text =
  (* 4-cycle with unit weights, METIS text the same way the CLI writes
     it. *)
  Graph_io.to_metis
    (Wgraph.of_edges 4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 0, 1) ])

let ws = lazy (Workspace.create ())

let handle svc line =
  Service.handle svc ~workspace:(Lazy.force ws) (Protocol.parse line)

let ok_json name (response, verdict) =
  (match Json.parse response with
  | Ok (Json.Obj (("ok", Json.Bool true) :: _) as v) -> (v, verdict)
  | Ok (Json.Obj (("ok", Json.Bool false) :: _)) ->
    Alcotest.failf "%s: error frame: %s" name response
  | _ -> Alcotest.failf "%s: not a response object: %s" name response)

let err_json name (response, verdict) =
  check_bool (name ^ ": continues") true (verdict = `Continue);
  match Json.parse response with
  | Ok (Json.Obj (("ok", Json.Bool false) :: _) as v) -> (
    match Json.member "error" v with
    | Some (Json.Str msg) -> msg
    | _ -> Alcotest.failf "%s: error frame without message: %s" name response)
  | _ -> Alcotest.failf "%s: expected error frame, got %s" name response

let field name v key =
  match Json.member key v with
  | Some x -> x
  | None -> Alcotest.failf "%s: missing field %S" name key

(* A (re)partition response used to be one [Json.t] tree with the
   labels as an [Arr] of [Num]s; now the labels are written straight
   into the response buffer. Over random labellings (k up to 1000),
   ids and scalar fields, both renderings must agree byte for byte. *)
let test_labels_response_bytes () =
  let rng = Random.State.make [| 0x1abe; 5 |] in
  for round = 1 to 300 do
    let k = 1 + Random.State.int rng 1000 in
    let labels =
      Array.init (Random.State.int rng 400) (fun _ -> Random.State.int rng k)
    in
    let id =
      match Random.State.int rng 4 with
      | 0 -> None
      | 1 -> Some (Json.int (Random.State.int rng 1_000_000 - 500_000))
      | 2 -> Some (Json.Str (Printf.sprintf "req-%d\"%d" round k))
      | _ -> Some (Json.Num (Random.State.float rng 1e6))
    in
    let fields =
      [ ("graph", Json.Str "g");
        ("feasible", Json.Bool (Random.State.bool rng));
        ("violation", Json.int (Random.State.int rng 5000));
        ("cut", Json.int (Random.State.int rng 1_000_000));
        ("cycles", Json.int (Random.State.int rng 20));
        ("runtime_s", Json.Num (Random.State.float rng 2.)) ]
    in
    let old_path =
      Protocol.ok ?id
        (fields
        @ [ ("labels", Json.Arr (Array.to_list (Array.map Json.int labels))) ])
    in
    check_string
      (Printf.sprintf "round %d (k=%d, n=%d)" round k (Array.length labels))
      old_path
      (Protocol.ok_with ?id fields ("labels", fun b ->
           Json.add_int_array b labels))
  done;
  (* And a real answer: re-rendering the parsed response through the
     tree printer reproduces it exactly. *)
  let svc = Service.create () in
  let rng = Random.State.make [| 0x1abe; 6 |] in
  let g, c =
    Ppnpart_workloads.Rand_graph.random_partitionable rng ~n:300 ~k:7
  in
  ignore
    (ok_json "submit"
       (handle svc
          (Printf.sprintf "{\"op\":\"submit\",\"graph\":\"g\",\"metis\":%s}"
             (Json.to_string (Json.Str (Graph_io.to_metis g))))));
  let response, _ =
    handle svc
      (Printf.sprintf
         "{\"id\":\"p\",\"op\":\"partition\",\"graph\":\"g\",\"k\":%d,\"bmax\":%d,\"rmax\":%d}"
         c.Types.k c.Types.bmax c.Types.rmax)
  in
  match Json.parse response with
  | Ok v ->
    check_string "partition response re-renders" (Json.to_string v) response
  | Error e -> Alcotest.failf "partition response not JSON (%s)" e

let test_service_flow () =
  let svc = Service.create () in
  let submit =
    Printf.sprintf "{\"op\":\"submit\",\"graph\":\"g\",\"metis\":%s}"
      (Json.to_string (Json.Str metis_text))
  in
  let v, verdict = ok_json "submit" (handle svc submit) in
  check_bool "submit continues" true (verdict = `Continue);
  check_bool "submit nodes" true (field "submit" v "nodes" = Json.int 4);
  let v, _ =
    ok_json "partition"
      (handle svc "{\"op\":\"partition\",\"graph\":\"g\",\"k\":2}")
  in
  check_bool "partition feasible" true
    (field "partition" v "feasible" = Json.Bool true);
  let labels = field "partition" v "labels" in
  (match labels with
  | Json.Arr labels -> check_int "labels for every node" 4 (List.length labels)
  | _ -> Alcotest.fail "labels not an array");
  (* The removed [stream_jobs] field is ignored, whatever its value. *)
  List.iter
    (fun sj ->
      let v, _ =
        ok_json "partition with stream_jobs"
          (handle svc
             (Printf.sprintf
                "{\"op\":\"partition\",\"graph\":\"g\",\"k\":2,\"stream_jobs\":%d}"
                sj))
      in
      check_bool
        (Printf.sprintf "stream_jobs %d: same labels" sj)
        true
        (field "partition" v "labels" = labels))
    [ 4; -1 ];
  let v, _ =
    ok_json "repartition"
      (handle svc
         ("{\"op\":\"repartition\",\"graph\":\"g\",\"edits\":"
        ^ "[{\"op\":\"add_node\",\"weight\":1,\"neighbors\":[[0,1]]}]}"))
  in
  check_bool "repartition grew graph" true
    (field "repartition" v "nodes" = Json.int 5);
  check_bool "repartition feasible" true
    (field "repartition" v "feasible" = Json.Bool true);
  let v, _ = ok_json "report" (handle svc "{\"op\":\"report\",\"graph\":\"g\"}") in
  (match field "report" v "report" with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "report not spliced as an object");
  let v, _ = ok_json "stats" (handle svc "{\"op\":\"stats\"}") in
  check_bool "stats counts graphs" true (field "stats" v "graphs" = Json.int 1);
  let _, verdict = ok_json "shutdown" (handle svc "{\"op\":\"shutdown\"}") in
  check_bool "shutdown verdict" true (verdict = `Shutdown)

let test_service_errors () =
  let svc = Service.create () in
  let msg = err_json "parse" (handle svc "not json at all") in
  check_bool "parse error mentions json" true (String.length msg > 0);
  let msg =
    err_json "unknown graph"
      (handle svc "{\"op\":\"partition\",\"graph\":\"nope\",\"k\":2}")
  in
  check_bool "names the graph" true (contains msg "nope");
  let submit =
    Printf.sprintf "{\"op\":\"submit\",\"graph\":\"g\",\"metis\":%s}"
      (Json.to_string (Json.Str metis_text))
  in
  ignore (ok_json "submit" (handle svc submit));
  let msg =
    err_json "repartition before partition"
      (handle svc "{\"op\":\"repartition\",\"graph\":\"g\",\"edits\":[]}")
  in
  check_bool "says partition first" true (String.length msg > 0);
  ignore (ok_json "partition" (handle svc "{\"op\":\"partition\",\"graph\":\"g\",\"k\":2}"));
  let msg =
    err_json "bad edit"
      (handle svc
         ("{\"op\":\"repartition\",\"graph\":\"g\",\"edits\":"
        ^ "[{\"op\":\"remove_node\",\"node\":99}]}"))
  in
  check_bool "bad edit reported" true (String.length msg > 0);
  let msg =
    err_json "bad metis"
      (handle svc "{\"op\":\"submit\",\"graph\":\"h\",\"metis\":\"garbage\"}")
  in
  check_bool "bad metis reported" true (String.length msg > 0);
  let v, _ = ok_json "stats" (handle svc "{\"op\":\"stats\"}") in
  match field "stats" v "errors" with
  | Json.Num errors -> check_bool "errors counted" true (errors >= 4.0)
  | _ -> Alcotest.fail "errors not a number"

let test_service_chunked_submit () =
  (* A graph delivered as submit-begin / submit-rows* / submit-end must
     be indistinguishable from a single-frame submit: same installed
     reply fields, and a subsequent partition answers byte-identically.
     Pieces cut adjacency lines mid-token on purpose. *)
  let svc = Service.create () in
  let submit =
    Printf.sprintf "{\"op\":\"submit\",\"graph\":\"whole\",\"metis\":%s}"
      (Json.to_string (Json.Str metis_text))
  in
  let v, _ = ok_json "whole submit" (handle svc submit) in
  let whole_nodes = field "whole" v "nodes" in
  ignore (ok_json "begin" (handle svc "{\"op\":\"submit-begin\",\"graph\":\"c\"}"));
  let len = String.length metis_text in
  let pos = ref 0 and last_rows = ref (-1) in
  while !pos < len do
    let l = min 7 (len - !pos) in
    let piece = String.sub metis_text !pos l in
    pos := !pos + l;
    let v, _ =
      ok_json "rows"
        (handle svc
           (Printf.sprintf "{\"op\":\"submit-rows\",\"graph\":\"c\",\"metis\":%s}"
              (Json.to_string (Json.Str piece))))
    in
    match field "rows" v "rows" with
    | Json.Num r ->
      let r = int_of_float r in
      check_bool "rows_done monotone" true (r >= !last_rows);
      last_rows := r
    | _ -> Alcotest.fail "rows not a number"
  done;
  let v, _ = ok_json "end" (handle svc "{\"op\":\"submit-end\",\"graph\":\"c\"}") in
  check_bool "chunked nodes = whole nodes" true
    (field "end" v "nodes" = whole_nodes);
  let part g =
    let v, _ =
      ok_json ("partition " ^ g)
        (handle svc
           (Printf.sprintf "{\"op\":\"partition\",\"graph\":%S,\"k\":2}" g))
    in
    field "partition" v "labels"
  in
  check_bool "chunked partition = whole partition" true
    (part "c" = part "whole")

let test_service_chunked_submit_errors () =
  let svc = Service.create () in
  (* rows without begin *)
  let msg =
    err_json "rows without begin"
      (handle svc "{\"op\":\"submit-rows\",\"graph\":\"x\",\"metis\":\"1 0\"}")
  in
  check_bool "says begin first" true (contains msg "submit-begin");
  let msg =
    err_json "end without begin"
      (handle svc "{\"op\":\"submit-end\",\"graph\":\"x\"}")
  in
  check_bool "end says begin first" true (contains msg "submit-begin");
  (* A malformed piece kills the upload but not the connection or any
     installed graph under the same id. *)
  let submit =
    Printf.sprintf "{\"op\":\"submit\",\"graph\":\"g\",\"metis\":%s}"
      (Json.to_string (Json.Str metis_text))
  in
  ignore (ok_json "install g" (handle svc submit));
  ignore (ok_json "begin g" (handle svc "{\"op\":\"submit-begin\",\"graph\":\"g\"}"));
  let uploads () =
    let v, _ = ok_json "stats" (handle svc "{\"op\":\"stats\"}") in
    field "stats" v "uploads"
  in
  check_bool "upload pending" true (uploads () = Json.int 1);
  let msg =
    err_json "malformed piece"
      (handle svc
         "{\"op\":\"submit-rows\",\"graph\":\"g\",\"metis\":\"2 1\\n1\\n\"}")
  in
  check_bool "of_metis voice" true (contains msg "Graph_io.of_metis");
  check_bool "upload dropped" true (uploads () = Json.int 0);
  let msg =
    err_json "rows after failure"
      (handle svc "{\"op\":\"submit-rows\",\"graph\":\"g\",\"metis\":\"1\\n\"}")
  in
  check_bool "retry needs fresh begin" true (contains msg "submit-begin");
  (* the previously installed graph still answers *)
  let v, _ =
    ok_json "old graph intact"
      (handle svc "{\"op\":\"partition\",\"graph\":\"g\",\"k\":2}")
  in
  check_bool "old graph feasible" true
    (field "partition" v "feasible" = Json.Bool true)

let test_service_hostile_headers () =
  (* A header's node count is only a claim. One that cannot index an
     array fails on the piece that carries it; a huge but legal one
     costs nothing until rows back it, and fails at submit-end. Either
     way the answer is an error frame, the upload is gone and the next
     request is served. *)
  let svc = Service.create () in
  let uploads () =
    let v, _ = ok_json "stats" (handle svc "{\"op\":\"stats\"}") in
    field "stats" v "uploads"
  in
  let rows text =
    handle svc
      (Printf.sprintf
         "{\"op\":\"submit-rows\",\"graph\":\"h\",\"metis\":%s}"
         (Json.to_string (Json.Str text)))
  in
  let begin_ () =
    ignore
      (ok_json "begin h"
         (handle svc "{\"op\":\"submit-begin\",\"graph\":\"h\"}"))
  in
  begin_ ();
  let msg = err_json "n = max_int" (rows "4611686018427387903 0\n") in
  Alcotest.(check string) "bad header" "Graph_io.of_metis: bad header" msg;
  check_bool "max_int upload dropped" true (uploads () = Json.int 0);
  begin_ ();
  ignore (ok_json "n = 2^40 header" (rows "1099511627776 1\n2\n1\n"));
  let msg =
    err_json "n = 2^40 end"
      (handle svc "{\"op\":\"submit-end\",\"graph\":\"h\"}")
  in
  Alcotest.(check string) "truncated"
    "Graph_io.of_metis: expected 1099511627776 node lines, got 2" msg;
  check_bool "2^40 upload dropped" true (uploads () = Json.int 0);
  let submit text =
    handle svc
      (Printf.sprintf "{\"op\":\"submit\",\"graph\":\"h\",\"metis\":%s}"
         (Json.to_string (Json.Str text)))
  in
  ignore (err_json "whole max_int" (submit "4611686018427387903 0\n"));
  ignore (err_json "whole 2^40" (submit "1099511627776 0\n"));
  let v, _ = ok_json "next request served" (submit metis_text) in
  check_bool "installed" true (field "submit" v "nodes" = Json.int 4)

let test_service_deep_nesting () =
  (* A megabyte of '[' used to keep a worker in the parser for seconds
     (the cost grew with the square of the depth). It must now come back
     as an error frame at once, and the next request must be served. *)
  let svc = Service.create () in
  let line = String.make (1 lsl 20) '[' in
  let t0 = Unix.gettimeofday () in
  let msg = err_json "1 MB of [" (handle svc line) in
  let dt = Unix.gettimeofday () -. t0 in
  check_string "names the bound"
    "bad JSON: nesting deeper than 64 at byte 64" msg;
  check_bool (Printf.sprintf "answered in %.3f s" dt) true (dt < 0.25);
  let v, _ = ok_json "next request served" (handle svc "{\"op\":\"stats\"}") in
  check_bool "error counted" true (field "stats" v "errors" = Json.int 1)

(* The report a [report] response carries, printed again without its
   wall-clock runtime_s. *)
let report_of name response =
  match Json.parse response with
  | Ok (Json.Obj (("ok", Json.Bool true) :: ("graph", Json.Str "g")
                  :: [ ("report", report) ])) ->
    without_runtime report
  | _ -> Alcotest.failf "%s: not a report frame: %s" name response

let test_service_report_bytes () =
  (* Reports are built on the first [report] request, not with every
     answer. The bytes must be those of rendering the answer eagerly:
     the same run, replayed here, gives the same report up to its
     wall-clock runtime_s. *)
  let module Gp = Ppnpart_core.Gp in
  let module Run_report = Ppnpart_core.Run_report in
  let rng = Random.State.make [| 0x8e7; 1 |] in
  let g0, c0 =
    Ppnpart_workloads.Rand_graph.random_partitionable rng ~n:120 ~k:3
  in
  let metis = Graph_io.to_metis g0 in
  let g = Graph_io.of_metis metis in
  let svc = Service.create () in
  ignore
    (ok_json "submit"
       (handle svc
          (Printf.sprintf "{\"op\":\"submit\",\"graph\":\"g\",\"metis\":%s}"
             (Json.to_string (Json.Str metis)))));
  let partition =
    Printf.sprintf
      "{\"op\":\"partition\",\"graph\":\"g\",\"k\":%d,\"bmax\":%d,\"rmax\":%d}"
      c0.Types.k c0.Types.bmax c0.Types.rmax
  in
  let config, c, mode =
    match Protocol.parse partition with
    | _, Ok (Protocol.Partition { c; mode; seed; _ }) ->
      ({ Config.default with Config.mode; seed }, c, mode)
    | _ -> Alcotest.fail "partition frame did not parse"
  in
  ignore (ok_json "partition" (handle svc partition));
  let response () =
    fst (handle svc "{\"op\":\"report\",\"graph\":\"g\"}")
  in
  let report () = report_of "report" (response ()) in
  let r = Gp.partition ~config g c in
  let after_partition = report () in
  check_string "report after partition"
    (without_runtime
       (Run_report.of_result ~algo:("gp-" ^ Config.mode_name mode) g c r))
    after_partition;
  check_string "memoized" (response ()) (response ());
  let repartition =
    "{\"op\":\"repartition\",\"graph\":\"g\",\"edits\":["
    ^ "{\"op\":\"set_node_weight\",\"node\":3,\"w\":2},"
    ^ "{\"op\":\"add_node\",\"weight\":1,\"neighbors\":[[0,1],[5,2]]}]}"
  in
  let edits =
    match Protocol.parse repartition with
    | _, Ok (Protocol.Repartition { edits; _ }) -> edits
    | _ -> Alcotest.fail "repartition frame did not parse"
  in
  let v, _ = ok_json "repartition" (handle svc repartition) in
  check_bool "stayed incremental" true
    (field "repartition" v "incremental" = Json.Bool true);
  let rp = Gp.repartition ~config ~prev:r.Gp.part g c edits in
  check_string "report after repartition"
    (without_runtime
       (Run_report.of_result ~algo:"gp-incremental" rp.Gp.rp_graph c
          rp.Gp.rp_result))
    (report ())

(* --- Resident refinement state --- *)

(* Design-space-exploration steps on a planted graph: three batches of
   node re-estimates plus one new in-cluster channel, each followed by
   its inverse, so the graph is back to the submitted one after every
   second step. Node ids never change. *)
let dse_steps rng g ~k =
  let n = Wgraph.n_nodes g in
  let line edits =
    Printf.sprintf "{\"op\":\"repartition\",\"graph\":\"g\",\"edits\":[%s]}"
      (String.concat "," edits)
  in
  let weight u w =
    Printf.sprintf "{\"op\":\"set_node_weight\",\"node\":%d,\"w\":%d}" u w
  in
  List.concat_map
    (fun _ ->
      let a = Random.State.int rng n in
      let rec channel () =
        let u = Random.State.int rng n in
        let v = (u * k / n * n / k) + Random.State.int rng (n / k) in
        if v * k / n <> u * k / n || u = v || Wgraph.mem_edge g u v then
          channel ()
        else (u, v)
      in
      let u, v = channel () in
      let edge op extra =
        Printf.sprintf "{\"op\":%S,\"u\":%d,\"v\":%d%s}" op u v extra
      in
      [ line
          [ weight a (Wgraph.node_weight g a + 1);
            edge "add_edge" ",\"w\":3" ];
        line [ weight a (Wgraph.node_weight g a); edge "remove_edge" "" ] ])
    [ 0; 1; 2 ]

let test_service_resident_state () =
  let module Registry = Ppnpart_obs.Metrics_registry in
  let rng = Random.State.make [| 0x4e5; 1 |] in
  let k = 4 in
  let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n:240 ~k in
  let submit =
    Printf.sprintf "{\"op\":\"submit\",\"graph\":\"g\",\"metis\":%s}"
      (Json.to_string (Json.Str (Graph_io.to_metis g)))
  in
  let partition seed =
    Printf.sprintf
      "{\"op\":\"partition\",\"graph\":\"g\",\"k\":%d,\"bmax\":%d,\"rmax\":%d,\"seed\":%d}"
      c.Types.k c.Types.bmax c.Types.rmax seed
  in
  let steps = dse_steps rng g ~k in
  let run lines =
    Ppnpart_obs.Obs.with_registry (fun () ->
        let svc = Service.create () in
        List.map
          (fun l ->
            let response = fst (handle svc l) in
            ignore (ok_json l (response, `Continue));
            response)
          lines)
  in
  let count (snap : Registry.snapshot) name =
    Option.value ~default:0 (List.assoc_opt name snap.Registry.counters)
  in
  (* A DSE loop patches the resident state on every step after the
     first, and stays incremental throughout. *)
  let responses, snap = run (submit :: partition 1 :: steps) in
  List.iteri
    (fun i r ->
      if i >= 2 then
        match Json.parse r with
        | Ok v ->
          check_bool
            (Printf.sprintf "step %d incremental" (i - 1))
            true
            (Json.member "incremental" v = Some (Json.Bool true))
        | Error e -> Alcotest.failf "step %d: %s" (i - 1) e)
    responses;
  check_int "resident on every step after the first"
    (List.length steps - 1)
    (count snap "gp.repartition.resident");
  check_int "one rebuild" 1 (count snap "gp.repartition.rebuilt");
  check_int "first step builds a new state" 1
    (count snap "gp.repartition.rebuilt.new_state");
  check_int "certificates agree" 0
    (count snap "gp.certificate_mismatch");
  (* A new partition, or a re-submit, drops the state: the next
     repartition rebuilds it and answers what a fresh service answers
     to the same graph, partition and batch. (After two steps the graph
     is the submitted one again.) *)
  let f0, b0, f1 =
    match steps with f0 :: b0 :: f1 :: _ -> (f0, b0, f1) | _ -> assert false
  in
  List.iter
    (fun (what, reset) ->
      let responses, snap =
        run ([ submit; partition 1; f0; b0 ] @ reset @ [ f1 ])
      in
      check_int (what ^ ": patched only before the reset") 1
        (count snap "gp.repartition.resident");
      check_int (what ^ ": rebuilt after the reset") 2
        (count snap "gp.repartition.rebuilt.new_state");
      let fresh, _ =
        run ((submit :: List.filter (fun l -> l <> submit) reset) @ [ f1 ])
      in
      let last l = strip_runtime (List.nth l (List.length l - 1)) in
      check_string (what ^ ": same answer as a fresh service") (last fresh)
        (last responses))
    [ ("new partition", [ partition 2 ]);
      ("re-submit", [ submit; partition 1 ]) ]

(* --- Daemon end to end --- *)

let daemon_socket () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ppnpartd-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))

(* Run a daemon in a thread, connect, hand the connection's channels to
   [f] (whose requests must end with a "shutdown"), then wait for the
   daemon to exit. *)
let daemon_session ~workers f =
  let path = daemon_socket () in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let is_ready = ref false in
  let daemon =
    Thread.create
      (fun () ->
        Daemon.serve
          ~ready:(fun () ->
            Mutex.lock ready_m;
            is_ready := true;
            Condition.broadcast ready_c;
            Mutex.unlock ready_m)
          { Daemon.socket_path = path; workers; queue_limit = 64 })
      ()
  in
  Mutex.lock ready_m;
  while not !is_ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let result =
    f (Unix.out_channel_of_descr fd) (Unix.in_channel_of_descr fd)
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Thread.join daemon;
  check_bool "socket removed on shutdown" true (not (Sys.file_exists path));
  result

(* Play a scripted list of request lines (last one "shutdown"), return
   the response lines. *)
let with_daemon ~workers lines =
  daemon_session ~workers (fun oc ic ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines;
      flush oc;
      List.map
        (fun _ -> try input_line ic with End_of_file -> "<eof>")
        lines)

let script =
  [ Printf.sprintf
      "{\"id\":1,\"op\":\"submit\",\"graph\":\"g\",\"metis\":%s}"
      (Json.to_string (Json.Str metis_text));
    "{\"id\":2,\"op\":\"partition\",\"graph\":\"g\",\"k\":2,\"seed\":3}";
    "{\"id\":3,\"op\":\"repartition\",\"graph\":\"g\",\"edits\":\
     [{\"op\":\"add_edge\",\"u\":0,\"v\":2,\"w\":2}]}";
    "{\"id\":4,\"op\":\"report\",\"graph\":\"g\"}";
    "{\"id\":5,\"op\":\"bogus\"}";
    "{\"id\":6,\"op\":\"shutdown\"}" ]

let test_daemon_end_to_end () =
  let responses = with_daemon ~workers:2 script in
  check_int "one response per request" (List.length script)
    (List.length responses);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Ok v ->
        check_bool
          (Printf.sprintf "response %d echoes id" i)
          true
          (Json.member "id" v = Some (Json.int (i + 1)));
        let expect_ok = i <> 4 in
        check_bool
          (Printf.sprintf "response %d ok=%b" i expect_ok)
          true
          (Json.member "ok" v = Some (Json.Bool expect_ok))
      | Error e -> Alcotest.failf "response %d not json (%s): %s" i e line)
    responses

(* A client streaming bytes without a newline must not grow the
   daemon's memory without bound: past [Daemon.max_frame_bytes] the
   frame is refused with an error frame, the rest of the line is
   dropped, and the same connection goes on to answer the next
   request. *)
let test_daemon_frame_bound () =
  let responses =
    daemon_session ~workers:1 (fun oc ic ->
        let piece = Bytes.make (1 lsl 20) 'x' in
        let sent = ref 0 in
        while !sent <= Daemon.max_frame_bytes do
          output_bytes oc piece;
          sent := !sent + Bytes.length piece
        done;
        output_string oc
          "\n{\"id\":2,\"op\":\"stats\"}\n{\"id\":3,\"op\":\"shutdown\"}\n";
        flush oc;
        List.init 3 (fun _ -> try input_line ic with End_of_file -> "<eof>"))
  in
  match List.map Json.parse responses with
  | [ Ok refused; Ok stats; Ok shutdown ] ->
    check_bool "over-long frame refused" true
      (Json.member "ok" refused = Some (Json.Bool false));
    check_bool "refusal names the bound" true
      (Json.member "error" refused
      = Some
          (Json.Str
             (Printf.sprintf "frame longer than %d bytes"
                Daemon.max_frame_bytes)));
    check_bool "next request answered" true
      (Json.member "id" stats = Some (Json.int 2)
      && Json.member "ok" stats = Some (Json.Bool true));
    check_bool "shutdown answered" true
      (Json.member "id" shutdown = Some (Json.int 3))
  | _ ->
    Alcotest.failf "unexpected responses: %s"
      (String.concat " | " responses)

let test_daemon_deterministic_across_workers_and_restarts () =
  (* Same scripted session against a fresh daemon, 1 worker vs 4
     workers: byte-identical responses (modulo the runtime_s field,
     which is wall-clock by design). *)
  let run () = List.map strip_runtime (with_daemon ~workers:1 script) in
  let a = run () in
  let b = List.map strip_runtime (with_daemon ~workers:4 script) in
  let c = run () in
  Alcotest.(check (list string)) "restart-identical" a c;
  Alcotest.(check (list string)) "worker-count-identical" a b

let quick_tests =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json string escapes" `Quick test_json_string_escapes;
    Alcotest.test_case "json printer bytes" `Quick test_json_printer_bytes;
    QCheck_alcotest.to_alcotest prop_json_int_roundtrip;
    Alcotest.test_case "labels response bytes" `Quick
      test_labels_response_bytes;
    Alcotest.test_case "json nesting bound" `Quick test_json_nesting_bound;
    Alcotest.test_case "protocol parse ok" `Quick test_protocol_parse_ok;
    Alcotest.test_case "protocol parse edits" `Quick test_protocol_parse_edits;
    Alcotest.test_case "protocol parse errors" `Quick test_protocol_parse_errors;
    Alcotest.test_case "protocol frames" `Quick test_protocol_frames;
    Alcotest.test_case "pool per-client order" `Quick test_pool_per_client_order;
    Alcotest.test_case "pool overload and stop" `Quick
      test_pool_overload_and_stop;
    Alcotest.test_case "pool exceptions reach finish" `Quick
      test_pool_exceptions_reach_finish;
    Alcotest.test_case "service flow" `Quick test_service_flow;
    Alcotest.test_case "service errors" `Quick test_service_errors;
    Alcotest.test_case "service chunked submit" `Quick
      test_service_chunked_submit;
    Alcotest.test_case "service chunked submit errors" `Quick
      test_service_chunked_submit_errors;
    Alcotest.test_case "service hostile headers" `Quick
      test_service_hostile_headers;
    Alcotest.test_case "service deep nesting" `Quick test_service_deep_nesting;
    Alcotest.test_case "service report bytes" `Quick test_service_report_bytes;
    Alcotest.test_case "service resident state" `Quick
      test_service_resident_state;
    Alcotest.test_case "daemon end to end" `Quick test_daemon_end_to_end;
    Alcotest.test_case "daemon frame bound" `Quick test_daemon_frame_bound ]

let slow_tests =
  [ Alcotest.test_case "daemon deterministic across workers/restarts" `Slow
      test_daemon_deterministic_across_workers_and_restarts ]

let () =
  Alcotest.run "server"
    [ ("server", quick_tests @ slow_tests) ]
