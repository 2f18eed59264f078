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
   costs O(degree), not O(m), and nothing O(n) beyond the node weights
   is allocated until the rebuild: removed handles go into a hash. A handle below [n0] is its own
   original id; handles from [n0] on were added. Hash iteration order
   never reaches the result: each materialized row is sorted by
   neighbour id, so the output is a pure function of the edit batch. *)
type builder = {
  g : Wgraph.t;  (* adjacency source for unmaterialized rows *)
  n0 : int;  (* original node count: handles >= n0 were added *)
  weight : int array;  (* node handle -> weight, one per handle *)
  mutable next : int;  (* next unused handle *)
  removed : (int, unit) Hashtbl.t;
  adj : (int, (int, int) Hashtbl.t) Hashtbl.t;  (* modified rows only *)
  touched : (int, unit) Hashtbl.t;
}

let of_graph g ~adds =
  let n0 = Wgraph.n_nodes g in
  (* A plain loop: [Array.blit] into a major-heap array pays a write
     barrier per element. *)
  let weight = Array.make (n0 + adds) 0 in
  for u = 0 to n0 - 1 do
    weight.(u) <- g.Wgraph.vwgt.(u)
  done;
  {
    g;
    n0;
    weight;
    next = Wgraph.n_nodes g;
    removed = Hashtbl.create 4;
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
  if Hashtbl.mem b.removed u then err "%s: node %d was removed" op u

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
    let u = b.next in
    b.next <- u + 1;
    b.weight.(u) <- weight;
    touch b u;
    List.iter
      (fun (v, w) ->
        put_edge b u v w;
        touch b v)
      neighbors
  | Remove_node u ->
    check_node b ~op:"remove_node" u;
    Hashtbl.replace b.removed u ();
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

(* Handle [u]'s edited-graph id: [new_id] is the compaction map when
   the batch removed a node, and [None] (the identity) otherwise. *)
let renumbered new_id u =
  match new_id with Some a -> a.(u) | None -> u

(* The edited-graph ids of the touched handles that survive, ascending.
   Every row or weight the batch changed belongs to one of them. *)
let touched_survivors b new_id =
  let ids =
    Hashtbl.fold
      (fun u () acc ->
        let u' = renumbered new_id u in
        if u' >= 0 then u' :: acc else acc)
      b.touched []
  in
  let a = Array.of_list ids in
  Array.sort Int.compare a;
  a

(* The edited CSR arrays. The handles a base row cannot be copied for —
   materialized, removed or added — are visited in ascending order;
   between two of them lies a run of untouched base rows (all below
   [n0]), copied as one block with its row pointers shifted by the
   running degree delta. The renumbering is monotone, so a renumbered
   slice stays sorted. *)
let splice b ~new_id n' =
  let g = b.g and n0 = b.n0 in
  let keys h = List.of_seq (Hashtbl.to_seq_keys h) in
  let added = List.init (b.next - n0) (fun i -> n0 + i) in
  let spliced =
    Array.of_list
      (List.sort_uniq Int.compare (keys b.adj @ keys b.removed @ added))
  in
  let gx = g.Wgraph.xadj and gadj = g.Wgraph.adjncy
  and gwgt = g.Wgraph.adjwgt in
  let m2 =
    Array.fold_left
      (fun m h ->
        let m = if h < n0 then m - Wgraph.degree g h else m in
        match Hashtbl.find_opt b.adj h with
        | Some r -> m + Hashtbl.length r
        | None -> m)
      gx.(n0) spliced
  in
  let xadj = Array.make (n' + 1) 0 in
  let adjncy = Array.make m2 0 and adjwgt = Array.make m2 0 in
  let u' = ref 0 and pos = ref 0 in
  (* Plain int loops: [Array.blit] into a major-heap array pays a write
     barrier per element. *)
  let copy_run lo hi =
    let src = gx.(lo) and dst = !pos in
    let len = gx.(hi) - src in
    for h = lo to hi - 1 do
      xadj.(!u' + h - lo + 1) <- gx.(h + 1) - src + dst
    done;
    (match new_id with
     | Some a ->
       for i = 0 to len - 1 do
         adjncy.(dst + i) <- a.(gadj.(src + i));
         adjwgt.(dst + i) <- gwgt.(src + i)
       done
     | None ->
       for i = 0 to len - 1 do
         adjncy.(dst + i) <- gadj.(src + i);
         adjwgt.(dst + i) <- gwgt.(src + i)
       done);
    pos := dst + len;
    u' := !u' + hi - lo
  in
  let cursor = ref 0 in
  Array.iter
    (fun h ->
      if !cursor < h then copy_run !cursor h;
      cursor := h + 1;
      if not (Hashtbl.mem b.removed h) then begin
        (* A materialized row: dump the hash, then sort the slice by id.
           An added node without one has no neighbours. *)
        Option.iter
          (fun r ->
            let lo = !pos in
            Hashtbl.iter
              (fun v w ->
                adjncy.(!pos) <- renumbered new_id v;
                adjwgt.(!pos) <- w;
                incr pos)
              r;
            Int_sort.sort_pairs adjncy adjwgt ~lo ~len:(!pos - lo))
          (Hashtbl.find_opt b.adj h);
        incr u';
        xadj.(!u') <- !pos
      end)
    spliced;
  if !cursor < n0 then copy_run !cursor n0;
  (xadj, adjncy, adjwgt)

let apply g ops =
  let adds =
    List.fold_left
      (fun acc -> function Add_node _ -> acc + 1 | _ -> acc)
      0 ops
  in
  let b = of_graph g ~adds in
  List.iter (apply_op b) ops;
  let n0 = b.n0 and next = b.next in
  let removed = Hashtbl.length b.removed in
  let n' = next - removed in
  (* Survivors are compacted, in ascending handle order, onto
     0 .. n' - 1: the identity unless the batch removed a node, and
     only then is the map an array. *)
  let node_map = Array.make n' (-1) in
  let new_id, vwgt =
    if removed = 0 then begin
      for u = 0 to n0 - 1 do
        node_map.(u) <- u
      done;
      (None, b.weight)
    end
    else begin
      let new_id = Array.make next (-1) and vwgt = Array.make n' 0 in
      let k = ref 0 in
      for u = 0 to next - 1 do
        if not (Hashtbl.mem b.removed u) then begin
          new_id.(u) <- !k;
          if u < n0 then node_map.(!k) <- u;
          vwgt.(!k) <- b.weight.(u);
          incr k
        end
      done;
      (Some new_id, vwgt)
    end
  in
  let xadj, adjncy, adjwgt = splice b ~new_id n' in
  let touched_nodes = touched_survivors b new_id in
  let g' =
    Wgraph.of_splice g
      ?node_map:(Option.map (fun _ -> node_map) new_id)
      ~vwgt ~xadj ~adjncy ~adjwgt ~rows:touched_nodes ()
  in
  if Atomic.get Debug_hooks.enabled then begin
    Wgraph.validate g';
    Ppnpart_obs.Counters.incr "check.graph_edit.apply"
  end;
  ( g',
    node_map,
    {
      added_nodes = adds;
      removed_nodes = removed;
      touched = Hashtbl.length b.touched;
      touched_nodes;
    } )
