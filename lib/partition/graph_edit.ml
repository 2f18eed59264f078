open Ppnpart_graph

exception Invalid_edit of string

type op =
  | Add_node of { weight : int; neighbors : (int * int) list }
  | Remove_node of int
  | Add_edge of int * int * int
  | Remove_edge of int * int
  | Set_node_weight of int * int
  | Set_edge_weight of int * int * int

let op_name = function
  | Add_node _ -> "add_node"
  | Remove_node _ -> "remove_node"
  | Add_edge _ -> "add_edge"
  | Remove_edge _ -> "remove_edge"
  | Set_node_weight _ -> "set_node_weight"
  | Set_edge_weight _ -> "set_edge_weight"

type stats = {
  added_nodes : int;
  removed_nodes : int;
  touched : int;
  touched_nodes : int array;
}

let err fmt = Printf.ksprintf (fun msg -> raise (Invalid_edit msg)) fmt

(* The working representation is the base graph plus a per-node
   neighbour hash (weights mirrored on both endpoints) for exactly the
   rows some op has modified — a node whose adjacency no edit reaches
   never materializes a hash. Every op — including [Remove_node] —
   costs O(degree), not O(m). The rebuild splices the edited CSR
   directly: unmodified rows are copied slice by slice from the base
   arrays and only the materialized rows are sorted, so a small batch
   costs O(n + m) integer copying plus O(edits · degree · log degree),
   with no edge tuple and no global sort. Hash iteration order never
   reaches the result: each materialized row is sorted by neighbour id,
   so the output is a pure function of the edit batch. *)
type builder = {
  g : Wgraph.t;  (* adjacency source for unmaterialized rows *)
  n0 : int;  (* original node count: handles >= n0 were added *)
  mutable weight : int array;  (* node handle -> weight *)
  mutable alive : bool array;
  mutable orig : int array;  (* node handle -> original id, -1 = added *)
  mutable next : int;  (* next unused handle *)
  adj : (int, (int, int) Hashtbl.t) Hashtbl.t;  (* modified rows only *)
  touched : (int, unit) Hashtbl.t;
}

let of_graph g =
  let n = Wgraph.n_nodes g in
  {
    g;
    n0 = n;
    weight = Array.init n (Wgraph.node_weight g);
    alive = Array.make n true;
    orig = Array.init n Fun.id;
    next = n;
    adj = Hashtbl.create 64;
    touched = Hashtbl.create 16;
  }

(* Materialize node [u]'s row on first modification. Sound lazily: if
   the row is absent, no edit has reached [u]'s adjacency yet — an
   earlier removal or reweighting of an incident edge, or of a
   neighbour, would have materialized it — so the base graph's slice is
   exact and every neighbour in it is still alive. *)
let row b u =
  match Hashtbl.find_opt b.adj u with
  | Some r -> r
  | None ->
    let r = Hashtbl.create 8 in
    if u < b.n0 then
      Wgraph.iter_neighbors b.g u (fun v w -> Hashtbl.replace r v w);
    Hashtbl.replace b.adj u r;
    r

let touch b u = Hashtbl.replace b.touched u ()

let check_node b ~op u =
  if u < 0 || u >= b.next then err "%s: node %d out of range" op u;
  if not b.alive.(u) then err "%s: node %d was removed" op u

let grow b =
  let cap = Array.length b.weight in
  if b.next = cap then begin
    let cap' = max 8 (2 * cap) in
    let weight' = Array.make cap' 0
    and alive' = Array.make cap' false
    and orig' = Array.make cap' (-1) in
    Array.blit b.weight 0 weight' 0 cap;
    Array.blit b.alive 0 alive' 0 cap;
    Array.blit b.orig 0 orig' 0 cap;
    b.weight <- weight';
    b.alive <- alive';
    b.orig <- orig'
  end

let edge_weight b u v = Hashtbl.find_opt (row b u) v

let put_edge b u v w =
  Hashtbl.replace (row b u) v w;
  Hashtbl.replace (row b v) u w

let apply_op b = function
  | Add_node { weight; neighbors } ->
    if weight < 0 then err "add_node: negative weight %d" weight;
    List.iter
      (fun (v, w) ->
        check_node b ~op:"add_node" v;
        if w < 0 then err "add_node: negative edge weight %d" w)
      neighbors;
    let seen = Hashtbl.create 4 in
    List.iter
      (fun (v, _) ->
        if Hashtbl.mem seen v then
          err "add_node: duplicate neighbor %d" v;
        Hashtbl.replace seen v ())
      neighbors;
    grow b;
    let u = b.next in
    b.next <- u + 1;
    b.weight.(u) <- weight;
    b.alive.(u) <- true;
    b.orig.(u) <- -1;
    touch b u;
    List.iter
      (fun (v, w) ->
        put_edge b u v w;
        touch b v)
      neighbors
  | Remove_node u ->
    check_node b ~op:"remove_node" u;
    b.alive.(u) <- false;
    touch b u;
    let r = row b u in
    Hashtbl.iter
      (fun v _ ->
        touch b v;
        Hashtbl.remove (row b v) u)
      r;
    Hashtbl.remove b.adj u
  | Add_edge (u, v, w) ->
    check_node b ~op:"add_edge" u;
    check_node b ~op:"add_edge" v;
    if u = v then err "add_edge: self loop on node %d" u;
    if w < 0 then err "add_edge: negative weight %d" w;
    if edge_weight b u v <> None then
      err "add_edge: edge %d-%d already exists" u v;
    put_edge b u v w;
    touch b u;
    touch b v
  | Remove_edge (u, v) ->
    check_node b ~op:"remove_edge" u;
    check_node b ~op:"remove_edge" v;
    if edge_weight b u v = None then
      err "remove_edge: no edge %d-%d" u v;
    Hashtbl.remove (row b u) v;
    Hashtbl.remove (row b v) u;
    touch b u;
    touch b v
  | Set_node_weight (u, w) ->
    check_node b ~op:"set_node_weight" u;
    if w < 0 then err "set_node_weight: negative weight %d" w;
    b.weight.(u) <- w;
    touch b u
  | Set_edge_weight (u, v, w) ->
    check_node b ~op:"set_edge_weight" u;
    check_node b ~op:"set_edge_weight" v;
    if w < 0 then err "set_edge_weight: negative weight %d" w;
    if edge_weight b u v = None then
      err "set_edge_weight: no edge %d-%d" u v;
    put_edge b u v w;
    touch b u;
    touch b v

(* The edited-graph ids of the touched handles that survive, ascending.
   Every row or weight the batch changed belongs to one of them. *)
let touched_survivors b new_id =
  let ids =
    Hashtbl.fold
      (fun u () acc -> if new_id.(u) >= 0 then new_id.(u) :: acc else acc)
      b.touched []
  in
  let a = Array.of_list ids in
  Array.sort Int.compare a;
  a

let apply g ops =
  let b = of_graph g in
  let added = ref 0 and removed = ref 0 in
  List.iter
    (fun op ->
      (match op with
      | Add_node _ -> incr added
      | Remove_node _ -> incr removed
      | _ -> ());
      apply_op b op)
    ops;
  (* Compact surviving handles, in ascending order, onto 0 .. n' - 1. *)
  let n' = ref 0 in
  let new_id = Array.make b.next (-1) in
  for u = 0 to b.next - 1 do
    if b.alive.(u) then begin
      new_id.(u) <- !n';
      incr n'
    end
  done;
  let n' = !n' in
  let node_map = Array.make n' (-1) in
  let vwgt = Array.make n' 0 in
  for u = 0 to b.next - 1 do
    let u' = new_id.(u) in
    if u' >= 0 then begin
      node_map.(u') <- b.orig.(u);
      vwgt.(u') <- b.weight.(u)
    end
  done;
  (* Row pointers from each survivor's degree in the edited graph: a
     materialized row owns its current adjacency, an unmaterialized
     base row is unchanged, and an added node without a row has none. *)
  let xadj = Array.make (n' + 1) 0 in
  let has_row = Array.make b.next false in
  Hashtbl.iter
    (fun u r ->
      has_row.(u) <- true;
      xadj.(new_id.(u) + 1) <- Hashtbl.length r)
    b.adj;
  for u = 0 to b.n0 - 1 do
    if b.alive.(u) && not has_row.(u) then
      xadj.(new_id.(u) + 1) <- Wgraph.degree g u
  done;
  for u' = 0 to n' - 1 do
    xadj.(u' + 1) <- xadj.(u') + xadj.(u' + 1)
  done;
  let adjncy = Array.make xadj.(n') 0 and adjwgt = Array.make xadj.(n') 0 in
  (* Unmaterialized rows are exact in the edited graph (any edit to one
     of their edges would have materialized them). [new_id] is
     monotone, so each renumbered slice stays sorted. (A plain int loop:
     [Array.blit] into a major-heap array pays a write barrier per
     element and measured slower, even where [new_id] is the identity.) *)
  for u = 0 to b.n0 - 1 do
    if b.alive.(u) && not has_row.(u) then begin
      let src = g.Wgraph.xadj.(u) and dst = xadj.(new_id.(u)) in
      for i = 0 to g.Wgraph.xadj.(u + 1) - src - 1 do
        adjncy.(dst + i) <- new_id.(g.Wgraph.adjncy.(src + i));
        adjwgt.(dst + i) <- g.Wgraph.adjwgt.(src + i)
      done
    end
  done;
  (* Materialized rows: dump the hash, then sort the slice by id. *)
  Hashtbl.iter
    (fun u r ->
      let lo = xadj.(new_id.(u)) in
      let i = ref lo in
      Hashtbl.iter
        (fun v w ->
          adjncy.(!i) <- new_id.(v);
          adjwgt.(!i) <- w;
          incr i)
        r;
      Int_sort.sort_pairs adjncy adjwgt ~lo ~len:(!i - lo))
    b.adj;
  let g' = Wgraph.of_csr ~vwgt ~n:n' ~xadj ~adjncy ~adjwgt () in
  ( g',
    node_map,
    {
      added_nodes = !added;
      removed_nodes = !removed;
      touched = Hashtbl.length b.touched;
      touched_nodes = touched_survivors b new_id;
    } )
