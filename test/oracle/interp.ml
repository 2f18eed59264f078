open Ppnpart_poly

type env = (string, (int array, int) Hashtbl.t) Hashtbl.t
type semantics = int array -> int list -> int

let default_input array point =
  (* Deterministic, spread-out values per (array, element). *)
  Hashtbl.hash (array, Array.to_list point)

let store env array =
  match Hashtbl.find_opt env array with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 256 in
    Hashtbl.add env array t;
    t

let run ?(input = default_input) program =
  let env : env = Hashtbl.create 16 in
  let read array element =
    match Hashtbl.find_opt env array with
    | Some t -> (
      match Hashtbl.find_opt t element with
      | Some v -> v
      | None -> input array element)
    | None -> input array element
  in
  List.iter
    (fun (stmt, f) ->
      let reads = Stmt.reads stmt and writes = Stmt.writes stmt in
      Domain.iter (Stmt.domain stmt) (fun point ->
          let values =
            List.map
              (fun a -> read (Access.array_name a) (Access.eval a point))
              reads
          in
          let v = f point values in
          List.iter
            (fun a ->
              Hashtbl.replace
                (store env (Access.array_name a))
                (Access.eval a point) v)
            writes))
    program;
  env

let lookup env array element =
  Option.bind (Hashtbl.find_opt env array) (fun t ->
      Hashtbl.find_opt t element)

let array_of env array =
  match Hashtbl.find_opt env array with
  | None -> []
  | Some t ->
    Hashtbl.fold (fun k v acc -> (Array.copy k, v) :: acc) t []
    |> List.sort compare

let equal_env a b =
  let names env =
    Hashtbl.fold (fun k _ acc -> k :: acc) env [] |> List.sort compare
  in
  names a = names b
  && List.for_all (fun name -> array_of a name = array_of b name) (names a)
