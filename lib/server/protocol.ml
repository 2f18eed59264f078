open Ppnpart_partition
module Config = Ppnpart_core.Config

type command =
  | Submit of { graph : string; metis : string }
  | Submit_begin of { graph : string }
  | Submit_rows of { graph : string; metis : string }
  | Submit_end of { graph : string }
  | Partition of {
      graph : string;
      c : Types.constraints;
      mode : Config.mode;
      seed : int;
      jobs : int;
    }
  | Repartition of { graph : string; edits : Graph_edit.op list }
  | Report of { graph : string }
  | Stats
  | Shutdown

(* Field extraction: every helper returns [Result] so a malformed
   request degrades into one precise error string, never an exception —
   the connection must survive anything a client sends. *)

let ( let* ) = Result.bind

let field_str obj key =
  match Option.map Json.to_str (Json.member key obj) with
  | Some (Some s) -> Ok s
  | Some None -> Error (Printf.sprintf "field %S must be a string" key)
  | None -> Error (Printf.sprintf "missing field %S" key)

let field_int obj key =
  match Option.map Json.to_int (Json.member key obj) with
  | Some (Some i) -> Ok i
  | Some None -> Error (Printf.sprintf "field %S must be an integer" key)
  | None -> Error (Printf.sprintf "missing field %S" key)

let field_int_opt obj key ~default =
  match Json.member key obj with
  | None -> Ok default
  | Some j -> (
    match Json.to_int j with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S must be an integer" key))

let parse_mode obj =
  match Json.member "mode" obj with
  | None -> Ok Config.Multilevel
  | Some j -> (
    match Json.to_str j with
    | Some "multilevel" -> Ok Config.Multilevel
    | Some "stream" -> Ok Config.Stream
    | Some "hybrid" -> Ok Config.Hybrid
    | Some other -> Error (Printf.sprintf "unknown mode %S" other)
    | None -> Error "field \"mode\" must be a string")

let parse_neighbors j =
  match Json.to_arr j with
  | None -> Error "add_node: \"neighbors\" must be an array of [node, weight]"
  | Some items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match Option.map (List.map Json.to_int) (Json.to_arr item) with
        | Some [ Some v; Some w ] -> go ((v, w) :: acc) rest
        | _ -> Error "add_node: each neighbor must be [node, weight]")
    in
    go [] items

let parse_edit j =
  match Json.to_str (Option.value ~default:Json.Null (Json.member "op" j)) with
  | None -> Error "edit without an \"op\" field"
  | Some op -> (
    match op with
    | "add_node" ->
      let* weight = field_int j "weight" in
      let* neighbors =
        match Json.member "neighbors" j with
        | None -> Ok []
        | Some nbrs -> parse_neighbors nbrs
      in
      Ok (Graph_edit.Add_node { weight; neighbors })
    | "remove_node" ->
      let* u = field_int j "node" in
      Ok (Graph_edit.Remove_node u)
    | "add_edge" ->
      let* u = field_int j "u" in
      let* v = field_int j "v" in
      let* w = field_int j "w" in
      Ok (Graph_edit.Add_edge (u, v, w))
    | "remove_edge" ->
      let* u = field_int j "u" in
      let* v = field_int j "v" in
      Ok (Graph_edit.Remove_edge (u, v))
    | "set_node_weight" ->
      let* u = field_int j "node" in
      let* w = field_int j "w" in
      Ok (Graph_edit.Set_node_weight (u, w))
    | "set_edge_weight" ->
      let* u = field_int j "u" in
      let* v = field_int j "v" in
      let* w = field_int j "w" in
      Ok (Graph_edit.Set_edge_weight (u, v, w))
    | other -> Error (Printf.sprintf "unknown edit op %S" other))

let parse_edits obj =
  match Json.member "edits" obj with
  | None -> Error "missing field \"edits\""
  | Some j -> (
    match Json.to_arr j with
    | None -> Error "field \"edits\" must be an array"
    | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
          let* e = parse_edit item in
          go (e :: acc) rest
      in
      go [] items)

let parse_command obj =
  let* op = field_str obj "op" in
  match op with
  | "submit" ->
    let* graph = field_str obj "graph" in
    let* metis = field_str obj "metis" in
    Ok (Submit { graph; metis })
  | "submit-begin" ->
    let* graph = field_str obj "graph" in
    Ok (Submit_begin { graph })
  | "submit-rows" ->
    let* graph = field_str obj "graph" in
    let* metis = field_str obj "metis" in
    Ok (Submit_rows { graph; metis })
  | "submit-end" ->
    let* graph = field_str obj "graph" in
    Ok (Submit_end { graph })
  | "partition" ->
    let* graph = field_str obj "graph" in
    let* k = field_int obj "k" in
    let* bmax = field_int_opt obj "bmax" ~default:max_int in
    let* rmax = field_int_opt obj "rmax" ~default:max_int in
    let* mode = parse_mode obj in
    let* seed = field_int_opt obj "seed" ~default:0 in
    let* jobs = field_int_opt obj "jobs" ~default:1 in
    let* c =
      try Ok (Types.constraints ~k ~bmax ~rmax)
      with Invalid_argument msg -> Error msg
    in
    if jobs < 0 then Error "field \"jobs\" must be >= 0"
    else Ok (Partition { graph; c; mode; seed; jobs })
  | "repartition" ->
    let* graph = field_str obj "graph" in
    let* edits = parse_edits obj in
    Ok (Repartition { graph; edits })
  | "report" ->
    let* graph = field_str obj "graph" in
    Ok (Report { graph })
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | other -> Error (Printf.sprintf "unknown op %S" other)

let parse line =
  match Json.parse line with
  | Error msg -> (None, Error ("bad JSON: " ^ msg))
  | Ok (Json.Obj _ as obj) -> (Json.member "id" obj, parse_command obj)
  | Ok _ -> (None, Error "request must be a JSON object")

let id_fields id = match id with None -> [] | Some id -> [ ("id", id) ]

let ok ?id fields =
  Json.to_string (Json.Obj ((("ok", Json.Bool true) :: id_fields id) @ fields))

let error ?id msg =
  Json.to_string
    (Json.Obj
       ((("ok", Json.Bool false) :: id_fields id) @ [ ("error", Json.Str msg) ]))

let ok_with ?id fields (key, add) =
  let b = Buffer.create 4096 in
  Json.to_buffer b
    (Json.Obj ((("ok", Json.Bool true) :: id_fields id) @ fields));
  (* Splice before the closing brace; the object always has at least
     the "ok" field, so a comma is always right. *)
  Buffer.truncate b (Buffer.length b - 1);
  Buffer.add_char b ',';
  Json.to_buffer b (Json.Str key);
  Buffer.add_char b ':';
  add b;
  Buffer.add_char b '}';
  Buffer.contents b

let ok_with_raw ?id fields (key, raw) =
  ok_with ?id fields (key, fun b -> Buffer.add_string b raw)
