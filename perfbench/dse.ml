(* daemon-dse-10k: ppnpartd as a design-space-exploration loop.

   An in-process [Daemon.serve] (one worker domain) listens on a unix
   socket in the working directory; one client connection uploads a
   planted-feasible graph in chunks, partitions it once, then runs
   design-space-exploration steps in a closed loop. One step, the op,
   is a repartition request carrying one edit batch, followed on every
   third step by a report request. A round is six steps: three edit
   batches, each followed by its inverse, so the graph returns to its
   uploaded form every second step. Every op is a repartition, so the
   latency distribution is not a mix of two request kinds.

   Every response is checked against a local mirror graph edited with
   the same batches. In the traced run the same request sequence is
   also replayed in-process against a private [Service], whose layers
   a capture can see (the daemon's worker domain is outside it). *)

open Ppnpart_graph
open Ppnpart_partition
module Json = Ppnpart_server.Json
module Protocol = Ppnpart_server.Protocol
module Service = Ppnpart_server.Service
module Daemon = Ppnpart_server.Daemon
module Rand_graph = Ppnpart_workloads.Rand_graph

let n = 10_000
let k = 8
let graph_id = "dse"
let upload_piece = 64 * 1024

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let send conn line =
  Layers.with_ "socket.write" (fun () ->
      output_string conn.oc line;
      output_char conn.oc '\n';
      flush conn.oc)

let recv conn = Layers.with_ "socket.read" (fun () -> input_line conn.ic)

let request conn line =
  send conn line;
  recv conn

let obj fields = Json.to_string (Json.Obj fields)
let num i = Json.int i

(* One edit batch as a request line and as the ops the mirror applies. *)
type edit = { line : string; ops : Graph_edit.op list }

let edit_json = function
  | Graph_edit.Set_node_weight (u, w) ->
    Json.Obj
      [ ("op", Json.Str "set_node_weight"); ("node", num u); ("w", num w) ]
  | Graph_edit.Add_edge (u, v, w) ->
    Json.Obj
      [ ("op", Json.Str "add_edge"); ("u", num u); ("v", num v); ("w", num w) ]
  | Graph_edit.Remove_edge (u, v) ->
    Json.Obj [ ("op", Json.Str "remove_edge"); ("u", num u); ("v", num v) ]
  | _ -> invalid_arg "Dse.edit_json"

let edit ops =
  {
    line =
      obj
        [ ("op", Json.Str "repartition");
          ("graph", Json.Str graph_id);
          ("edits", Json.Arr (List.map edit_json ops)) ];
    ops;
  }

(* Three (batch, inverse) pairs: node-weight re-estimates on three
   processes plus one new channel between two unconnected processes of
   the same planted cluster ([Rand_graph.random_partitionable] puts
   node [u] in cluster [u * k / n]). The planted clustering keeps its
   slack under every batch, so each edited graph stays feasible. *)
let edit_pairs rng g =
  List.init 3 (fun _ ->
      let pick () = Random.State.int rng n in
      let a = pick () and b = pick () and c = pick () in
      let rec channel () =
        let u = pick () in
        let first = u * k / n * n / k in
        let v = first + Random.State.int rng (n / k) in
        if v * k / n <> u * k / n || u = v || Wgraph.mem_edge g u v then
          channel ()
        else (u, v)
      in
      let u, v = channel () in
      let w x = Wgraph.node_weight g x in
      let bump = 1 + Random.State.int rng 2 in
      let forward =
        List.sort_uniq compare [ a; b; c ]
        |> List.map (fun x -> Graph_edit.Set_node_weight (x, w x + bump))
      in
      let back =
        List.sort_uniq compare [ a; b; c ]
        |> List.map (fun x -> Graph_edit.Set_node_weight (x, w x))
      in
      ( edit (forward @ [ Graph_edit.Add_edge (u, v, 1 + Random.State.int rng 5) ]),
        edit (back @ [ Graph_edit.Remove_edge (u, v) ]) ))

(* One step: a repartition, then a report when [report]. *)
type step = { batch : edit; report : bool }

let report_line = obj [ ("op", Json.Str "report"); ("graph", Json.Str graph_id) ]

(* The six-step round. *)
let schedule pairs =
  match pairs with
  | [ (f0, u0); (f1, u1); (f2, u2) ] ->
    Array.map
      (fun (batch, report) -> { batch; report })
      [| (f0, false); (u0, false); (f1, true); (u1, false); (f2, false);
         (u2, true) |]
  | _ -> assert false

(* The chunked upload: submit-begin, one submit-rows per piece of the
   METIS text (cut anywhere), submit-end. *)
let upload_lines metis =
  let len = String.length metis in
  let rec pieces off acc =
    if off >= len then List.rev acc
    else
      let l = min upload_piece (len - off) in
      pieces (off + l)
        (obj
           [ ("op", Json.Str "submit-rows");
             ("graph", Json.Str graph_id);
             ("metis", Json.Str (String.sub metis off l)) ]
        :: acc)
  in
  (obj [ ("op", Json.Str "submit-begin"); ("graph", Json.Str graph_id) ]
  :: pieces 0 [])
  @ [ obj [ ("op", Json.Str "submit-end"); ("graph", Json.Str graph_id) ] ]

let partition_line (c : Types.constraints) seed =
  obj
    [ ("op", Json.Str "partition");
      ("graph", Json.Str graph_id);
      ("k", num c.Types.k);
      ("bmax", num c.Types.bmax);
      ("rmax", num c.Types.rmax);
      ("seed", num seed) ]

(* ---- response checks ---- *)

let field name j = Json.member name j
let int_field name j = Option.bind (field name j) Json.to_int

let labels_of j =
  match Option.bind (field "labels" j) Json.to_arr with
  | None -> None
  | Some l -> (
    try
      Some
        (Array.of_list
           (List.map (fun x -> Option.get (Json.to_int x)) l))
    with Invalid_argument _ -> None)

(* The planted clustering: [Rand_graph.random_partitionable] puts node
   [u] in cluster [u * k / n]. *)
let planted g = Array.init (Wgraph.n_nodes g) (fun u -> u * k / n)

let error_frame j =
  Op.Failed
    ("error frame: "
    ^ Option.value ~default:"" (Option.bind (field "error" j) Json.to_str))

(* Check a parsed partition/repartition response against graph [g]. *)
let check_partition g c j =
  match
    ( field "ok" j,
      field "feasible" j,
      int_field "violation" j,
      int_field "cut" j,
      labels_of j )
  with
  | Some (Json.Bool true), Some (Json.Bool feasible), Some violation,
    Some cut, Some part ->
    Op.check ~expect:Op.Feasible ~norm_cut:(Metrics.cut g (planted g)) g c
      ~part ~feasible
      ~goodness:{ Metrics.violation; cut_value = cut }
  | Some (Json.Bool false), _, _, _, _ -> error_frame j
  | _ -> Op.Failed "malformed partition response"

(* A parsed report must describe the mirror graph and the last answer. *)
let check_report g ~last_cut j =
  let report = field "report" j in
  let sub name = Option.bind report (field name) in
  match
    ( field "ok" j,
      Option.bind (sub "graph") (int_field "nodes"),
      Option.bind (sub "quality") (int_field "cut"),
      Option.bind (sub "quality") (field "feasible") )
  with
  | Some (Json.Bool true), Some nodes, Some cut, Some (Json.Bool true)
    when nodes = Wgraph.n_nodes g && cut = last_cut ->
    Op.Answered None
  | Some (Json.Bool false), _, _, _ -> error_frame j
  | _ -> Op.Failed "report does not match the last answer"

let parse resp =
  match Json.parse resp with
  | Ok j -> j
  | Error e -> failwith ("unparsable response: " ^ e)

let cut_of j = Option.value ~default:(-1) (int_field "cut" j)

(* ---- the workload ---- *)

type t = {
  socket_path : string;
  daemon : Thread.t;
  conn : conn;
  c : Types.constraints;
  rounds : step array;
  mutable mirror : Wgraph.t;
  mutable last_cut : int;
  replay : (Service.t * Workspace.t) option;
  upload_s : float;
}

let start_daemon path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let m = Mutex.create () and cv = Condition.create () in
  let ready = ref false in
  let daemon =
    Thread.create
      (fun () ->
        Daemon.serve
          ~ready:(fun () ->
            Mutex.lock m;
            ready := true;
            Condition.broadcast cv;
            Mutex.unlock m)
          { Daemon.socket_path = path; workers = 1; queue_limit = 64 })
      ()
  in
  Mutex.lock m;
  while not !ready do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  daemon

let replay_line (svc, ws) line =
  fst (Service.handle svc ~workspace:ws (Protocol.parse line))

let ok_frame resp =
  String.length resp >= 10 && String.sub resp 0 10 = "{\"ok\":true"

(* Generate, serialize, start the daemon, upload, partition. With
   [replay], the private service gets the same upload and partition.
   [sub] picks one of the seed's graphs. *)
let setup ~seed ~sub ~replay =
  let rng = Random.State.make [| seed; sub; 0xd5e |] in
  let base, c = Rand_graph.random_partitionable rng ~n ~k in
  let metis = Graph_io.to_metis base in
  let pairs = edit_pairs rng base in
  let socket_path = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ()) in
  at_exit (fun () -> try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let daemon = start_daemon socket_path in
  let conn = connect socket_path in
  let replay =
    if replay then Some (Service.create (), Workspace.create ()) else None
  in
  let t0 = Op.now () in
  List.iter
    (fun line ->
      let resp = request conn line in
      if not (ok_frame resp) then failwith ("upload refused: " ^ resp))
    (upload_lines metis);
  let upload_s = Op.now () -. t0 in
  let pline = partition_line c seed in
  let resp = parse (request conn pline) in
  (match check_partition base c resp with
   | Op.Failed why -> failwith ("first partition: " ^ why)
   | Op.Answered _ -> ());
  Option.iter
    (fun r ->
      List.iter (fun l -> ignore (replay_line r l)) (upload_lines metis);
      if labels_of (parse (replay_line r pline)) <> labels_of resp then
        failwith "replay disagrees with the daemon on the first partition")
    replay;
  {
    socket_path;
    daemon;
    conn;
    c;
    rounds = schedule pairs;
    mirror = base;
    last_cut = cut_of resp;
    replay;
    upload_s;
  }

let close t =
  ignore (request t.conn (obj [ ("op", Json.Str "shutdown") ]));
  Unix.close t.conn.fd;
  Thread.join t.daemon;
  try Unix.unlink t.socket_path with Unix.Unix_error _ -> ()

(* Traced-run accumulators the span fold does not cover. *)
let rt_s = ref 0.
let apply_s = ref 0.
let response_bytes = ref 0

let op t acc mode i =
  let step = t.rounds.(i mod Array.length t.rounds) in
  let lines = step.batch.line :: (if step.report then [ report_line ] else []) in
  Layers.recording := mode = Op.Traced;
  let resps, rt, gc0 =
    Op.timed (fun () -> List.map (fun line -> request t.conn line) lines)
  in
  Layers.recording := false;
  (* The replay: the same requests through a private service, in
     process, where the capture sees their layers. *)
  let layered_s, gc, replay_resp =
    match t.replay with
    | None -> (rt, gc0, None)
    | Some (svc, ws) ->
      let resps', dt, gc =
        Op.traced_timed mode acc (fun () ->
            List.map
              (fun line ->
                let parsed =
                  Layers.with_ "Protocol.parse" (fun () -> Protocol.parse line)
                in
                fst
                  (Layers.with_ "Service.handle" (fun () ->
                       Service.handle svc ~workspace:ws parsed)))
              lines)
      in
      (dt, gc, Some (List.hd resps'))
  in
  if mode = Op.Traced then begin
    rt_s := !rt_s +. rt;
    response_bytes :=
      List.fold_left (fun n r -> n + String.length r) !response_bytes resps
  end;
  (* An exception here (an unparsable frame) fails the op. *)
  let js = List.map parse resps in
  let j = List.hd js in
  (* The same [Graph_edit.apply] the daemon runs inside [Gp.repartition];
     timed here, since no library span covers it. *)
  Layers.recording := mode = Op.Traced;
  let t0 = Op.now () in
  let applied =
    Layers.with_ "Graph_edit.apply" (fun () ->
        try Ok (Graph_edit.apply t.mirror step.batch.ops)
        with Graph_edit.Invalid_edit m -> Error m)
  in
  if mode = Op.Traced then apply_s := !apply_s +. (Op.now () -. t0);
  Layers.recording := false;
  let answer =
    match applied with
    | Error m -> Op.Failed ("mirror edit: " ^ m)
    | Ok (g', _, _) -> (
      t.mirror <- g';
      t.last_cut <- cut_of j;
      match (check_partition g' t.c j, js) with
      | (Op.Answered _ as a), [ _; report ] -> (
        match check_report g' ~last_cut:t.last_cut report with
        | Op.Answered _ -> a
        | failed -> failed)
      | a, _ -> a)
  in
  let answer =
    match (answer, replay_resp) with
    | Op.Answered _, Some r' when labels_of (parse r') <> labels_of j ->
      Op.Failed "in-process replay disagrees with the daemon"
    | a, _ -> a
  in
  { Op.timed_s = rt; layered_s; gc; heap_words = !Op.last_heap_words; answer }

(* The daemon's own per-layer metrics, over [t] traced ops. *)
let extra t acc traced =
  let per_op x = x /. float_of_int (max 1 traced) in
  [ ("graph_io.upload_ms", t.upload_s *. 1e3);
    ("graph_edit.apply_ms", per_op (!apply_s *. 1e3));
    ("server.transport_ms",
     per_op ((!rt_s *. 1e3) -. Layers.total_ms acc "Service.handle"));
    ("server.response_kb", per_op (float_of_int !response_bytes /. 1024.)) ]
