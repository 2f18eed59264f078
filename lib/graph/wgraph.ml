type t = {
  n : int;
  xadj : int array;
  adjncy : int array;
  adjwgt : int array;
  vwgt : int array;
}

let check_vwgt ~who n w =
  if Array.length w <> n then invalid_arg (who ^ ": vwgt length mismatch");
  Array.iter (fun x -> if x < 0 then invalid_arg (who ^ ": negative vwgt")) w

let checked_vwgt ~who n = function
  | None -> Array.make n 1
  | Some w ->
    check_vwgt ~who n w;
    Array.copy w

(* The one CSR checker, behind both [of_csr] and [validate]: O(n + m),
   messages prefixed with [who]. *)
let check_csr ~who ?vwgt ~n ~xadj ~adjncy ~adjwgt () =
  let fail fmt = Format.kasprintf (fun s -> invalid_arg (who ^ ": " ^ s)) fmt in
  if n < 0 then fail "negative node count";
  if Array.length xadj <> n + 1 then fail "xadj length <> n + 1";
  if xadj.(0) <> 0 then fail "xadj.(0) <> 0";
  for u = 0 to n - 1 do
    if xadj.(u) > xadj.(u + 1) then fail "xadj not monotone at node %d" u
  done;
  let m2 = Array.length adjncy in
  if xadj.(n) <> m2 then fail "xadj.(n) <> |adjncy|";
  if Array.length adjwgt <> m2 then fail "adjwgt length <> |adjncy|";
  Option.iter (check_vwgt ~who n) vwgt;
  (* Symmetry (ids and weights) in the same ascending sweep: rows are
     visited in order, so the edges [(u, v)] with [u < v] reach [v]'s
     slice in ascending [u] — the order of [v]'s lower neighbours, a
     prefix of its sorted slice. A cursor per node pairs each with its
     mirror, and a lower neighbour the cursor has not passed by the time
     its own row is visited is an entry listed on one side only. The
     checks above keep every index in bounds: slice positions lie in
     [0, m2), and [v] is range checked before it indexes [cursor] or
     [xadj]. *)
  let cursor = Array.sub xadj 0 n in
  for u = 0 to n - 1 do
    let lo = Array.unsafe_get xadj u in
    for i = lo to Array.unsafe_get xadj (u + 1) - 1 do
      let v = Array.unsafe_get adjncy i and w = Array.unsafe_get adjwgt i in
      if v < 0 || v >= n then fail "neighbour out of range at node %d" u;
      if v = u then fail "self loop at node %d" u;
      if i > lo && Array.unsafe_get adjncy (i - 1) >= v then
        fail "adjacency slice of node %d not strictly ascending" u;
      if w < 0 then fail "negative edge weight at node %d" u;
      if v < u then begin
        if i >= Array.unsafe_get cursor u then
          fail "edge (%d, %d) missing its mirror" v u
      end
      else begin
        let j = Array.unsafe_get cursor v in
        if j >= Array.unsafe_get xadj (v + 1) || Array.unsafe_get adjncy j > u
        then fail "edge (%d, %d) missing its mirror" u v;
        if Array.unsafe_get adjncy j < u then
          fail "edge (%d, %d) missing its mirror" (Array.unsafe_get adjncy j) v;
        if Array.unsafe_get adjwgt j <> w then
          fail "asymmetric weight on edge (%d, %d)" u v;
        Array.unsafe_set cursor v (j + 1)
      end
    done
  done

let of_csr ?vwgt ~n ~xadj ~adjncy ~adjwgt () =
  check_csr ~who:"Wgraph.of_csr" ?vwgt ~n ~xadj ~adjncy ~adjwgt ();
  let vwgt = match vwgt with None -> Array.make n 1 | Some w -> Array.copy w in
  { n; xadj; adjncy; adjwgt; vwgt }

let unsafe_of_csr ?vwgt ~n ~xadj ~adjncy ~adjwgt () =
  let vwgt = match vwgt with None -> Array.make n 1 | Some w -> w in
  { n; xadj; adjncy; adjwgt; vwgt }

let soa_build ~who ?vwgt n ~src ~dst ~wgt =
  let fail fmt = Format.kasprintf (fun s -> invalid_arg (who ^ ": " ^ s)) fmt in
  if n < 0 then fail "negative node count";
  let m = Array.length src in
  if Array.length dst <> m || Array.length wgt <> m then
    fail "src/dst/wgt length mismatch";
  let vwgt = checked_vwgt ~who n vwgt in
  let deg = Array.make (max n 1) 0 in
  for e = 0 to m - 1 do
    let u = src.(e) and v = dst.(e) in
    if u < 0 || u >= n then fail "src node out of range at edge %d" e;
    if v < 0 || v >= n then fail "dst node out of range at edge %d" e;
    if wgt.(e) < 0 then fail "negative weight at edge %d" e;
    if u <> v then begin
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1
    end
  done;
  let xadj = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    xadj.(i + 1) <- xadj.(i) + deg.(i)
  done;
  let m2 = xadj.(n) in
  let adjncy = Array.make m2 0 in
  let adjwgt = Array.make m2 0 in
  let cursor = Array.sub xadj 0 (max n 1) in
  for e = 0 to m - 1 do
    let u = src.(e) and v = dst.(e) in
    if u <> v then begin
      adjncy.(cursor.(u)) <- v;
      adjwgt.(cursor.(u)) <- wgt.(e);
      cursor.(u) <- cursor.(u) + 1;
      adjncy.(cursor.(v)) <- u;
      adjwgt.(cursor.(v)) <- wgt.(e);
      cursor.(v) <- cursor.(v) + 1
    end
  done;
  (* Sort each slice, merge parallel edges by weight addition, and
     compact left; the write pointer never overtakes the read pointer. *)
  let wp = ref 0 in
  let out_xadj = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let lo = xadj.(u) and hi = xadj.(u + 1) in
    Int_sort.sort_pairs adjncy adjwgt ~lo ~len:(hi - lo);
    let i = ref lo in
    while !i < hi do
      let v = adjncy.(!i) in
      let acc = ref adjwgt.(!i) in
      incr i;
      while !i < hi && adjncy.(!i) = v do
        acc := !acc + adjwgt.(!i);
        incr i
      done;
      adjncy.(!wp) <- v;
      adjwgt.(!wp) <- !acc;
      incr wp
    done;
    out_xadj.(u + 1) <- !wp
  done;
  let adjncy = if !wp = m2 then adjncy else Array.sub adjncy 0 !wp in
  let adjwgt = if !wp = m2 then adjwgt else Array.sub adjwgt 0 !wp in
  { n; xadj = out_xadj; adjncy; adjwgt; vwgt }

let of_soa_edges = soa_build ~who:"Wgraph.of_soa_edges"

let build ?vwgt el =
  let src, dst, wgt = Edge_list.to_soa el in
  soa_build ~who:"Wgraph.build" ?vwgt (Edge_list.n_nodes el) ~src ~dst ~wgt

let of_edges ?vwgt n edges =
  let el = Edge_list.create n in
  Edge_list.add_all el edges;
  build ?vwgt el

let n_nodes g = g.n
let n_edges g = Array.length g.adjncy / 2
let degree g u = g.xadj.(u + 1) - g.xadj.(u)
let node_weight g u = g.vwgt.(u)
let total_node_weight g = Array.fold_left ( + ) 0 g.vwgt
let total_edge_weight g = Array.fold_left ( + ) 0 g.adjwgt / 2

let iter_neighbors g u f =
  for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
    f g.adjncy.(i) g.adjwgt.(i)
  done

let fold_neighbors g u f init =
  let acc = ref init in
  iter_neighbors g u (fun v w -> acc := f !acc v w);
  !acc

let weighted_degree g u = fold_neighbors g u (fun acc _ w -> acc + w) 0

(* Index of [v] in the sorted slice [lo, hi) of [a], or -1. Adjacency
   slices are sorted by neighbour id at build time, so edge lookups
   binary-search in O(log deg) rather than scanning the slice. *)
let search a ~lo ~hi v =
  let lo = ref lo and hi = ref (hi - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = a.(mid) in
    if x = v then found := mid
    else if x < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let neighbor_index g u v = search g.adjncy ~lo:g.xadj.(u) ~hi:g.xadj.(u + 1) v

let edge_weight g u v =
  let i = neighbor_index g u v in
  if i < 0 then 0 else g.adjwgt.(i)

let mem_edge g u v = neighbor_index g u v >= 0

(* Every row not in [rows] is, by the caller's contract, a base row
   renumbered through the (monotone) node map, so the invariants of
   [of_csr] can only break at an entry of a listed row, at an entry that
   a listed row lost, or at an entry of a copied row that names a
   removed node. The checks below cover exactly those three, with
   [of_csr]'s messages. *)
let of_splice base ?node_map ~vwgt ~xadj ~adjncy ~adjwgt ~rows () =
  let fail fmt = Format.kasprintf invalid_arg ("Wgraph.of_splice: " ^^ fmt) in
  let n = Array.length vwgt and nb = base.n in
  if Array.length xadj <> n + 1 then fail "xadj length <> n + 1";
  if xadj.(0) <> 0 then fail "xadj.(0) <> 0";
  let m2 = Array.length adjncy in
  if xadj.(n) <> m2 then fail "xadj.(n) <> |adjncy|";
  if Array.length adjwgt <> m2 then fail "adjwgt length <> |adjncy|";
  Array.iteri
    (fun i u ->
      if u < 0 || u >= n || (i > 0 && rows.(i - 1) >= u) then
        fail "spliced rows not strictly ascending in [0, n)")
    rows;
  let nr = Array.length rows in
  let listed u = search rows ~lo:0 ~hi:nr u >= 0 in
  (* [base_of u]: the base node result node [u] came from, or -1 for an
     added node; [new_of x]: base node [x]'s result id, or -1 if it was
     removed. Without [node_map] both are the identity on base ids. *)
  let base_of, new_of =
    match node_map with
    | None ->
      if n < nb then fail "fewer nodes than the base graph and no node_map";
      for u = nb to n - 1 do
        if not (listed u) then fail "added node %d not among the rows" u
      done;
      ((fun u -> if u < nb then u else -1), Fun.id)
    | Some map ->
      if Array.length map <> n then fail "node_map length <> n";
      let new_id = Array.make nb (-1) and last = ref (-1) in
      Array.iteri
        (fun u o ->
          if o < 0 then begin
            if not (listed u) then fail "added node %d not among the rows" u
          end
          else begin
            if o <= !last || o >= nb then
              fail "node_map not ascending into the base graph at node %d" u;
            new_id.(o) <- u;
            last := o
          end)
        map;
      (* A copied row naming a removed node would hold no valid id. *)
      for x = 0 to nb - 1 do
        if new_id.(x) < 0 then
          iter_neighbors base x (fun y _ ->
              let y' = new_id.(y) in
              if y' >= 0 && not (listed y') then
                fail "neighbour out of range at node %d" y')
      done;
      ((fun u -> map.(u)), fun x -> new_id.(x))
  in
  let mirror_missing u v =
    fail "edge (%d, %d) missing its mirror" (min u v) (max u v)
  and asymmetric u v =
    fail "asymmetric weight on edge (%d, %d)" (min u v) (max u v)
  in
  Array.iter
    (fun u ->
      if vwgt.(u) < 0 then fail "negative vwgt";
      let lo = xadj.(u) and hi = xadj.(u + 1) in
      if lo > hi || hi > m2 then fail "xadj not monotone at node %d" u;
      for i = lo to hi - 1 do
        let v = adjncy.(i) in
        if v < 0 || v >= n then fail "neighbour out of range at node %d" u;
        if v = u then fail "self loop at node %d" u;
        if i > lo && adjncy.(i - 1) >= v then
          fail "adjacency slice of node %d not strictly ascending" u;
        if adjwgt.(i) < 0 then fail "negative edge weight at node %d" u;
        let j = search adjncy ~lo:xadj.(v) ~hi:xadj.(v + 1) u in
        if j < 0 then mirror_missing u v;
        if adjwgt.(j) <> adjwgt.(i) then asymmetric u v
      done;
      (* A copied neighbour still lists [u] as the base graph did. *)
      let o = base_of u in
      if o >= 0 then
        iter_neighbors base o (fun y w ->
            let y' = new_of y in
            if y' >= 0 && not (listed y') then begin
              let j = search adjncy ~lo ~hi y' in
              if j < 0 then mirror_missing u y';
              if adjwgt.(j) <> w then asymmetric u y'
            end))
    rows;
  { n; xadj; adjncy; adjwgt; vwgt }

let iter_edges g f =
  for u = 0 to g.n - 1 do
    for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
      let v = g.adjncy.(i) in
      if u < v then f u v g.adjwgt.(i)
    done
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v w -> acc := f !acc u v w);
  !acc

let edges g =
  let l = fold_edges g (fun acc u v w -> (u, v, w) :: acc) [] in
  List.sort compare l

let components g =
  let comp = Array.make g.n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for src = 0 to g.n - 1 do
    if comp.(src) < 0 then begin
      let id = !count in
      incr count;
      comp.(src) <- id;
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        iter_neighbors g u (fun v _ ->
            if comp.(v) < 0 then begin
              comp.(v) <- id;
              Queue.add v queue
            end)
      done
    end
  done;
  (comp, !count)

let is_connected g = g.n = 0 || snd (components g) = 1

let bfs_order g src =
  let seen = Array.make g.n false in
  let order = ref [] in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    iter_neighbors g u (fun v _ ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
  done;
  Array.of_list (List.rev !order)

let induced g nodes =
  let n' = Array.length nodes in
  let old_to_new = Hashtbl.create n' in
  Array.iteri
    (fun i u ->
      if Hashtbl.mem old_to_new u then
        invalid_arg "Wgraph.induced: duplicate node";
      Hashtbl.add old_to_new u i)
    nodes;
  let el = Edge_list.create n' in
  Array.iteri
    (fun i u ->
      iter_neighbors g u (fun v w ->
          match Hashtbl.find_opt old_to_new v with
          | Some j when i < j -> Edge_list.add el i j w
          | Some _ | None -> ()))
    nodes;
  let vwgt = Array.map (fun u -> g.vwgt.(u)) nodes in
  (build ~vwgt el, Array.copy nodes)

let relabel g perm =
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= g.n || seen.(p) then
        invalid_arg "Wgraph.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  let el = Edge_list.create g.n in
  iter_edges g (fun u v w -> Edge_list.add el perm.(u) perm.(v) w);
  let vwgt = Array.make g.n 0 in
  Array.iteri (fun u p -> vwgt.(p) <- g.vwgt.(u)) perm;
  build ~vwgt el

let validate g =
  check_csr ~who:"Wgraph.validate" ~vwgt:g.vwgt ~n:g.n ~xadj:g.xadj
    ~adjncy:g.adjncy ~adjwgt:g.adjwgt ()

let equal a b =
  a.n = b.n && a.vwgt = b.vwgt && edges a = edges b

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (n_edges g);
  for u = 0 to g.n - 1 do
    Format.fprintf ppf "  %d (w=%d):" u g.vwgt.(u);
    iter_neighbors g u (fun v w -> Format.fprintf ppf " %d/%d" v w);
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let summary g =
  Printf.sprintf "n=%d m=%d vwgt=%d ewgt=%d" g.n (n_edges g)
    (total_node_weight g) (total_edge_weight g)
