open Ppnpart_graph
open Ppnpart_partition
module Gp = Ppnpart_core.Gp
module Config = Ppnpart_core.Config
module Run_report = Ppnpart_core.Run_report

let src = Logs.Src.create "ppnpart.server" ~doc:"Partition daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type entry = {
  elock : Mutex.t;  (** held across a whole request on this graph *)
  mutable graph : Wgraph.t;
  mutable labels : int array option;
  mutable c : Types.constraints option;
  mutable config : Config.t option;
  mutable report : string Lazy.t option;
      (** rendered on the first [report] request, then memoized: most
          answers are never asked for their report *)
  resident : Gp.resident;
      (** refinement state of the last incremental answer, patched by
          the next id-stable edit batch; its workspace belongs to this
          graph, not to a worker *)
}

(* An in-progress chunked submission ([submit-begin] .. [submit-end]):
   the incremental reader accumulates rows as frames arrive. Its own
   lock serializes frames racing in from different connections; the
   registry lock covers only lookup/insert/remove, so feeding a large
   piece never blocks requests for other graphs. *)
type upload = { ulock : Mutex.t; rows : Ppnpart_graph.Graph_io.Rows.t }

type t = {
  lock : Mutex.t;  (** registry lookup/insert + counters only *)
  graphs : (string, entry) Hashtbl.t;
  pending : (string, upload) Hashtbl.t;
  mutable requests : int;
  mutable errors : int;
}

let create () =
  {
    lock = Mutex.create ();
    graphs = Hashtbl.create 16;
    pending = Hashtbl.create 16;
    requests = 0;
    errors = 0;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let find t id = with_lock t.lock (fun () -> Hashtbl.find_opt t.graphs id)

(* Submitting an id atomically installs a fresh entry (replacing any
   old one, whose in-flight requests finish against the graph they
   started with — entries are never mutated without their own lock). *)
let install t id graph =
  with_lock t.lock (fun () ->
      let e =
        {
          elock = Mutex.create ();
          graph;
          labels = None;
          c = None;
          config = None;
          report = None;
          resident = Gp.resident ();
        }
      in
      Hashtbl.replace t.graphs id e)

(* A (re)partition answer: [fields], the result's scalars, and the
   labels last, written digit by digit into the response buffer. *)
let result_reply ~id fields (r : Gp.result) =
  Protocol.ok_with ?id
    (fields
    @ [ ("feasible", Json.Bool r.Gp.feasible);
        ("violation", Json.int r.Gp.goodness.Metrics.violation);
        ("cut", Json.int r.Gp.goodness.Metrics.cut_value);
        ("cycles", Json.int r.Gp.cycles_used);
        ("runtime_s", Json.Num r.Gp.runtime_s) ])
    ("labels", fun b -> Json.add_int_array b r.Gp.part)

let config_for ~mode ~seed ~jobs = { Config.default with Config.mode; seed; jobs }

let installed_reply ~id ~graph g =
  Protocol.ok ?id
    [ ("graph", Json.Str graph);
      ("nodes", Json.int (Wgraph.n_nodes g));
      ("edges", Json.int (Wgraph.n_edges g)) ]

let do_submit t ~id ~graph ~metis =
  let g = Graph_io.of_metis metis in
  install t graph g;
  installed_reply ~id ~graph g

let drop_upload t graph =
  with_lock t.lock (fun () -> Hashtbl.remove t.pending graph)

let do_submit_begin t ~id ~graph =
  let up = { ulock = Mutex.create (); rows = Graph_io.Rows.create () } in
  (* [replace]: a new begin for an id abandons any half-done upload,
     mirroring how [submit] replaces an installed graph. *)
  with_lock t.lock (fun () -> Hashtbl.replace t.pending graph up);
  Protocol.ok ?id [ ("graph", Json.Str graph); ("upload", Json.Bool true) ]

let do_submit_rows t ~id ~graph ~metis =
  match with_lock t.lock (fun () -> Hashtbl.find_opt t.pending graph) with
  | None ->
    Error
      (Printf.sprintf "no upload in progress for graph %S — submit-begin first"
         graph)
  | Some up ->
    with_lock up.ulock (fun () ->
        match Graph_io.Rows.feed up.rows metis with
        | () ->
          Ok
            (Protocol.ok ?id
               [ ("graph", Json.Str graph);
                 ("rows", Json.int (Graph_io.Rows.rows_done up.rows)) ])
        | exception Failure msg ->
          (* The reader is stuck mid-error; the upload cannot continue.
             Drop it so a retry starts clean — the connection and any
             installed graph under this id are untouched. *)
          drop_upload t graph;
          Error msg)

let do_submit_end t ~id ~graph =
  match
    with_lock t.lock (fun () ->
        let up = Hashtbl.find_opt t.pending graph in
        Hashtbl.remove t.pending graph;
        up)
  with
  | None ->
    Error
      (Printf.sprintf "no upload in progress for graph %S — submit-begin first"
         graph)
  | Some up ->
    with_lock up.ulock (fun () ->
        let g = Graph_io.Rows.finish up.rows in
        install t graph g;
        Ok (installed_reply ~id ~graph g))

let do_partition t ~id ~graph ~c ~mode ~seed ~jobs =
  match find t graph with
  | None -> Error (Printf.sprintf "unknown graph %S" graph)
  | Some e ->
    with_lock e.elock (fun () ->
        let config = config_for ~mode ~seed ~jobs in
        let r = Gp.partition ~config e.graph c in
        Gp.forget e.resident;
        e.labels <- Some r.Gp.part;
        e.c <- Some c;
        e.config <- Some config;
        (* Bind the graph now: [e.graph] moves on with the next
           repartition, and the report describes this answer. *)
        let g = e.graph and algo = "gp-" ^ Config.mode_name mode in
        e.report <- Some (lazy (Run_report.of_result ~algo g c r));
        Ok (result_reply ~id [ ("graph", Json.Str graph) ] r))

let do_repartition t ~id ~graph ~edits ~workspace =
  match find t graph with
  | None -> Error (Printf.sprintf "unknown graph %S" graph)
  | Some e ->
    with_lock e.elock (fun () ->
        match (e.labels, e.c) with
        | Some prev, Some c ->
          let config = Option.value ~default:Config.default e.config in
          (* The entry's resident slot holds the refinement state and
             its workspace; the worker's workspace backs hole seeding
             and the tabu rescue. Repartition itself is sequential, so
             the pool's concurrency all comes from distinct graphs. *)
          let rp =
            Gp.repartition ~config ~workspace ~resident:e.resident ~prev
              e.graph c edits
          in
          e.graph <- rp.Gp.rp_graph;
          e.labels <- Some rp.Gp.rp_result.Gp.part;
          let algo =
            if rp.Gp.rp_incremental then "gp-incremental" else "gp-scratch"
          in
          e.report <-
            Some
              (lazy
                (Run_report.of_result ~algo rp.Gp.rp_graph c rp.Gp.rp_result));
          Ok
            (result_reply ~id
               [ ("graph", Json.Str graph);
                 ("nodes", Json.int (Wgraph.n_nodes rp.Gp.rp_graph));
                 ("edges", Json.int (Wgraph.n_edges rp.Gp.rp_graph));
                 ("incremental", Json.Bool rp.Gp.rp_incremental);
                 ("seeded", Json.int rp.Gp.rp_seeded) ]
               rp.Gp.rp_result)
        | _ ->
          Error
            (Printf.sprintf "graph %S has no labelling yet — partition first"
               graph))

let do_report t ~id ~graph =
  match find t graph with
  | None -> Error (Printf.sprintf "unknown graph %S" graph)
  | Some e ->
    with_lock e.elock (fun () ->
        match e.report with
        | None ->
          Error
            (Printf.sprintf "graph %S has no report yet — partition first"
               graph)
        | Some report ->
          Ok
            (Protocol.ok_with_raw ?id
               [ ("graph", Json.Str graph) ]
               ("report", Lazy.force report)))

let stats t =
  with_lock t.lock (fun () ->
      [ ("graphs", Json.int (Hashtbl.length t.graphs));
        ("uploads", Json.int (Hashtbl.length t.pending));
        ("requests", Json.int t.requests);
        ("errors", Json.int t.errors) ])

let op_label = function
  | Protocol.Submit _ -> "submit"
  | Protocol.Submit_begin _ -> "submit-begin"
  | Protocol.Submit_rows _ -> "submit-rows"
  | Protocol.Submit_end _ -> "submit-end"
  | Protocol.Partition _ -> "partition"
  | Protocol.Repartition _ -> "repartition"
  | Protocol.Report _ -> "report"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"

let handle t ~workspace (id, parsed) =
  with_lock t.lock (fun () -> t.requests <- t.requests + 1);
  Ppnpart_obs.Counters.incr "server.requests";
  let fail msg =
    with_lock t.lock (fun () -> t.errors <- t.errors + 1);
    Ppnpart_obs.Counters.incr "server.errors";
    (Protocol.error ?id msg, `Continue)
  in
  match parsed with
  | Error msg -> fail msg
  | Ok command -> (
    Ppnpart_obs.Span.with_
      ~args:(fun () ->
        [ ("op", Ppnpart_obs.Obs.Str (op_label command)) ])
      "server.request"
    @@ fun () ->
    match
      match command with
      | Protocol.Submit { graph; metis } ->
        Ok (do_submit t ~id ~graph ~metis)
      | Protocol.Submit_begin { graph } ->
        Ok (do_submit_begin t ~id ~graph)
      | Protocol.Submit_rows { graph; metis } ->
        do_submit_rows t ~id ~graph ~metis
      | Protocol.Submit_end { graph } -> do_submit_end t ~id ~graph
      | Protocol.Partition { graph; c; mode; seed; jobs } ->
        do_partition t ~id ~graph ~c ~mode ~seed ~jobs
      | Protocol.Repartition { graph; edits } ->
        do_repartition t ~id ~graph ~edits ~workspace
      | Protocol.Report { graph } -> do_report t ~id ~graph
      | Protocol.Stats -> Ok (Protocol.ok ?id (stats t))
      | Protocol.Shutdown -> Ok (Protocol.ok ?id [ ("shutdown", Json.Bool true) ])
    with
    | Ok response ->
      ( response,
        match command with Protocol.Shutdown -> `Shutdown | _ -> `Continue )
    | Error msg -> fail msg
    | exception Failure msg -> fail msg
    | exception Graph_edit.Invalid_edit msg -> fail msg
    | exception Invalid_argument msg -> fail msg
    | exception e ->
      (* A server must answer, not die — but an exception that is none
         of the documented ones is a bug worth a log line. *)
      Log.err (fun m ->
          m "unexpected exception serving %s: %s" (op_label command)
            (Printexc.to_string e));
      fail ("internal error: " ^ Printexc.to_string e))
