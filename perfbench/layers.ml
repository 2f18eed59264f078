(* Per-layer attribution for the traced run.

   Two sources of spans:
   - benchmark-side spans, one around each public call the benchmark
     makes ([Graph_io.of_metis], [Gp.partition], [Service.handle], the
     socket write/read, ...). They are kept in memory with the id of
     the op they belong to, and are also emitted as {!Ppnpart_obs.Span}
     spans so they nest with the library's own spans in a capture;
   - the spans [lib/] already emits, read from an {!Ppnpart_obs.Obs}
     capture around each op.

   A span's self time is its duration minus the time its child spans
   cover; each span name belongs to one layer, and a layer's time is
   the sum of its spans' self times. *)

module Obs = Ppnpart_obs.Obs

(* ---- benchmark-side span log ---- *)

type span = { op : int; name : string; start_s : float; dur_s : float }

let log : span list ref = ref []
let current_op = ref 0
let recording = ref false

(* [with_ name f] times [f] under a benchmark-side span. Outside the
   traced run this is exactly [f ()]. *)
let with_ name f =
  if not !recording then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let v =
      Ppnpart_obs.Span.with_
        ~args:(fun () -> [ ("op", Obs.Int !current_op) ])
        name f
    in
    log :=
      { op = !current_op; name; start_s = t0; dur_s = Unix.gettimeofday () -. t0 }
      :: !log;
    v
  end

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"op\":%d,\"name\":%S,\"start_s\":%.6f,\"dur_us\":%.0f}\n" s.op
        s.name s.start_s (s.dur_s *. 1e6))
    (List.rev !log);
  close_out oc

(* ---- layers ---- *)

let prefixed p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The layer a span name belongs to. Benchmark wrappers around a whole
   library call ([Gp.partition], [Gp.partition_metis],
   [Gp.repartition]) and the socket spans are not a layer: time under
   them that no library span covers is the residual. *)
let layer_of name =
  if name = "Graph_io.of_metis" then Some "graph_io"
  else if prefixed "coarsen." name || prefixed "matching." name then
    Some "coarsen"
  else if prefixed "initial." name || prefixed "gp.seed" name then
    Some "initial"
  else if prefixed "refine" name then Some "refine"
  else if prefixed "stream." name then Some "stream"
  else if prefixed "gp." name then Some "gp"
  else if name = "Graph_edit.apply" then Some "graph_edit"
  else if
    name = "Protocol.parse" || name = "Service.handle"
    || name = "server.request"
  then Some "server"
  else None

(* ---- the fold over one capture ---- *)

type fold = {
  self_us : (string, int) Hashtbl.t;  (** span name -> summed self time *)
  total_us : (string, int) Hashtbl.t;  (** span name -> summed duration *)
  calls : (string, int) Hashtbl.t;  (** span name -> spans closed *)
  counters : (string, int) Hashtbl.t;
}

let create () =
  {
    self_us = Hashtbl.create 32;
    total_us = Hashtbl.create 32;
    calls = Hashtbl.create 32;
    counters = Hashtbl.create 32;
  }

let bump tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Adds one capture into [acc]. Task buffers spliced in by the pool are
   walked in place: with one domain they ran inside the span that is
   open when they are attached, so their time is that span's child
   time. *)
let add (acc : fold) (cap : Obs.capture) =
  let stack = Stack.create () in
  let rec walk buf =
    List.iter
      (function
        | Obs.Begin { name; ts; _ } -> Stack.push (name, ts, ref 0) stack
        | Obs.End { ts; _ } ->
          let name, t0, children = Stack.pop stack in
          let d = ts - t0 in
          bump acc.total_us name d;
          bump acc.calls name 1;
          bump acc.self_us name (d - !children);
          Option.iter
            (fun (_, _, c) -> c := !c + d)
            (Stack.top_opt stack)
        | Obs.Count { name; delta; _ } -> bump acc.counters name delta
        | Obs.Child b -> walk b
        | Obs.Instant _ | Obs.Sample _ -> ())
      (Obs.events buf)
  in
  walk cap.Obs.root

let find tbl name = Option.value ~default:0 (Hashtbl.find_opt tbl name)
let counter acc name = find acc.counters name
let calls acc name = find acc.calls name
let self_ms acc name = float_of_int (find acc.self_us name) /. 1e3
let total_ms acc name = float_of_int (find acc.total_us name) /. 1e3

(* Summed self time of every span of [layer], in ms. *)
let layer_ms acc layer =
  Hashtbl.fold
    (fun name us sum ->
      if layer_of name = Some layer then sum +. (float_of_int us /. 1e3)
      else sum)
    acc.self_us 0.

(* Self time of every span that belongs to some layer, in ms. *)
let attributed_ms acc =
  Hashtbl.fold
    (fun name us sum ->
      if layer_of name = None then sum else sum +. (float_of_int us /. 1e3))
    acc.self_us 0.
