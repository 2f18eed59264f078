open Ppnpart_graph

(* y = (c I - L) x  with L = D - W, i.e. y_u = (c - deg_u) x_u + sum w x_v *)
let apply_shifted g c x y =
  let n = Wgraph.n_nodes g in
  for u = 0 to n - 1 do
    let acc = ref ((c -. float_of_int (Wgraph.weighted_degree g u)) *. x.(u)) in
    Wgraph.iter_neighbors g u (fun v w -> acc := !acc +. (float_of_int w *. x.(v)));
    y.(u) <- !acc
  done

let deflate_constant x =
  let n = Array.length x in
  if n > 0 then begin
    let mean = Array.fold_left ( +. ) 0. x /. float_of_int n in
    for u = 0 to n - 1 do
      x.(u) <- x.(u) -. mean
    done
  end

let normalize x =
  let norm = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0. x) in
  if norm > 1e-12 then
    Array.iteri (fun i v -> x.(i) <- v /. norm) x

let iterations = 300

let fiedler g =
  let n = Wgraph.n_nodes g in
  if n = 0 then [||]
  else begin
    let c =
      let m = ref 1 in
      for u = 0 to n - 1 do
        if Wgraph.weighted_degree g u > !m then m := Wgraph.weighted_degree g u
      done;
      2. *. float_of_int !m
    in
    (* Deterministic, non-constant start vector. *)
    let x = Array.init n (fun u -> sin (float_of_int (u + 1))) in
    deflate_constant x;
    normalize x;
    let y = Array.make n 0. in
    for _ = 1 to iterations do
      apply_shifted g c x y;
      Array.blit y 0 x 0 n;
      deflate_constant x;
      normalize x
    done;
    x
  end

let split_at_fraction g order fraction =
  let n = Wgraph.n_nodes g in
  let total = Wgraph.total_node_weight g in
  let target = fraction *. float_of_int total in
  let part = Array.make n 1 in
  let acc = ref 0 in
  (* Always place at least one node on side 0 and leave one on side 1. *)
  Array.iteri
    (fun rank u ->
      if
        rank = 0
        || (rank < n - 1 && float_of_int !acc < target)
      then begin
        part.(u) <- 0;
        acc := !acc + Wgraph.node_weight g u
      end)
    order;
  part

let bisect ?(fraction = 0.5) g =
  let n = Wgraph.n_nodes g in
  let f = fiedler g in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare f.(a) f.(b)) order;
  let part = split_at_fraction g order fraction in
  (part, Ppnpart_partition.Metrics.cut g part)

let rec kway_rec rng g ~k labels nodes offset =
  if k <= 1 then
    Array.iter (fun u -> labels.(u) <- offset) nodes
  else begin
    let sub, back = Wgraph.induced g nodes in
    let k1 = k / 2 in
    let fraction = float_of_int k1 /. float_of_int k in
    let part, _ =
      if Wgraph.n_nodes sub <= 1 then
        (Array.make (Wgraph.n_nodes sub) (Random.State.int rng 2), 0)
      else bisect ~fraction sub
    in
    let left = ref [] and right = ref [] in
    Array.iteri
      (fun i u ->
        if part.(i) = 0 then left := u :: !left else right := u :: !right)
      back;
    let left = Array.of_list (List.rev !left)
    and right = Array.of_list (List.rev !right) in
    if Array.length left = 0 || Array.length right = 0 then
      (* Degenerate split (tiny subgraph): spread nodes round-robin. *)
      Array.iteri (fun i u -> labels.(u) <- offset + (i mod k)) back
    else begin
      kway_rec rng g ~k:k1 labels left offset;
      kway_rec rng g ~k:(k - k1) labels right (offset + k1)
    end
  end

let kway rng g ~k =
  if k < 1 then invalid_arg "Spectral.kway: k < 1";
  let n = Wgraph.n_nodes g in
  let labels = Array.make n 0 in
  kway_rec rng g ~k labels (Array.init n (fun i -> i)) 0;
  labels
