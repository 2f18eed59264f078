(* Reference coarsening: the boxed-tuple matchings and the [Edge_list]
   contraction as they stood before [Matching] and [Coarsen] moved onto
   flat edge buffers and a direct CSR -> CSR kernel, kept verbatim as
   their differential oracle. The edge-sorting matchings materialize
   [Wgraph.edges] (a tuple list), shuffle it and sort an index array
   through a comparator closure; contraction pushes every fine edge
   through [Edge_list] and [Wgraph.build]. Same rng draws, same
   matchings, same coarse graphs — and the allocation profile the
   coarsening benchmark's alloc ratio is measured against.

   Usage: [Coarsen_oracle.compute s rng g] against [Matching.compute],
   [Coarsen_oracle.contract g partner] against [Coarsen.contract], and
   [Coarsen_oracle.build rng g] — a [(graphs, maps)] pair — against the
   readable fields of [Coarsen.build]'s hierarchy. *)

open Ppnpart_graph
open Ppnpart_partition

let random_permutation rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* Order the edges by weight (descending), breaking weight ties by an
   explicit rank so the comparator is a total order: [Array.sort] is not
   stable, so sorting shuffled edges on weight alone would leave the tie
   order at the sort algorithm's mercy instead of the rank's. *)
let sort_edges_by_weight_rank edges =
  let m = Array.length edges in
  let order = Array.init m (fun i -> i) in
  Array.sort
    (fun i j ->
      let _, _, wi = edges.(i) and _, _, wj = edges.(j) in
      if wi <> wj then compare wj wi else compare i j)
    order;
  order

let heavy_edge rng g =
  let n = Wgraph.n_nodes g in
  let partner = Array.init n (fun i -> i) in
  let edges = Array.of_list (Wgraph.edges g) in
  (* Shuffle first so that the tie-breaking rank is uniformly random. *)
  let m = Array.length edges in
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = edges.(i) in
    edges.(i) <- edges.(j);
    edges.(j) <- t
  done;
  Array.iter
    (fun idx ->
      let u, v, _ = edges.(idx) in
      if partner.(u) = u && partner.(v) = v then begin
        partner.(u) <- v;
        partner.(v) <- u
      end)
    (sort_edges_by_weight_rank edges);
  partner

(* Roughly this many nodes per k-means cluster. *)
let cluster_size = 8

let k_means_clusters rng g =
  let n = Wgraph.n_nodes g in
  let nclusters = max 1 ((n + cluster_size - 1) / cluster_size) in
  (* Seeds spread across the node-weight range: sort by weight, take
     evenly spaced nodes. *)
  let by_weight = Array.init n (fun i -> i) in
  Array.sort
    (fun a b -> Int.compare (Wgraph.node_weight g a) (Wgraph.node_weight g b))
    by_weight;
  let cluster = Array.make n (-1) in
  let seeds = Array.init nclusters (fun c -> by_weight.(c * n / nclusters)) in
  Array.iteri (fun c s -> cluster.(s) <- c) seeds;
  (* Grow clusters: nodes join the cluster they are most strongly
     connected to; isolated-from-clusters nodes go to the seed of nearest
     weight. The cluster whose cumulative strength reaches the maximum
     first in adjacency order wins. *)
  let strength = Array.make nclusters 0 in
  let touched = Array.make nclusters 0 in
  let gen = ref 0 in
  let order = random_permutation rng n in
  let xadj = g.Wgraph.xadj
  and adjncy = g.Wgraph.adjncy
  and adjwgt = g.Wgraph.adjwgt
  and vwgt = g.Wgraph.vwgt in
  let assign u =
    if cluster.(u) < 0 then begin
      incr gen;
      let now = !gen in
      let best_c = ref (-1) and best_s = ref 0 in
      for i = xadj.(u) to xadj.(u + 1) - 1 do
        let c = cluster.(adjncy.(i)) in
        if c >= 0 then begin
          let s =
            if touched.(c) = now then strength.(c) + adjwgt.(i) else adjwgt.(i)
          in
          strength.(c) <- s;
          touched.(c) <- now;
          if s > !best_s then begin
            best_s := s;
            best_c := c
          end
        end
      done;
      if !best_c >= 0 then cluster.(u) <- !best_c
      else begin
        let wu = vwgt.(u) in
        let nearest = ref 0 and dist = ref max_int in
        Array.iteri
          (fun c s ->
            let d = abs (vwgt.(s) - wu) in
            if d < !dist then begin
              dist := d;
              nearest := c
            end)
          seeds;
        cluster.(u) <- !nearest
      end
    end
  in
  Array.iter assign order;
  (* One k-means refinement sweep on the (fixed) weight centroids. *)
  let sum = Array.make nclusters 0 and cnt = Array.make nclusters 0 in
  for u = 0 to n - 1 do
    sum.(cluster.(u)) <- sum.(cluster.(u)) + vwgt.(u);
    cnt.(cluster.(u)) <- cnt.(cluster.(u)) + 1
  done;
  let mean =
    Array.init nclusters (fun c -> if cnt.(c) = 0 then 0 else sum.(c) / cnt.(c))
  in
  for u = 0 to n - 1 do
    let wu = vwgt.(u) in
    let best_c = ref cluster.(u) in
    let best_d = ref (abs (wu - mean.(cluster.(u)))) in
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let c = cluster.(adjncy.(i)) in
      let d = abs (wu - mean.(c)) in
      if d < !best_d then begin
        best_d := d;
        best_c := c
      end
    done;
    cluster.(u) <- !best_c
  done;
  cluster

(* Make the matching maximal across clusters. *)
let k_means_maximalize rng g partner =
  let xadj = g.Wgraph.xadj
  and adjncy = g.Wgraph.adjncy
  and adjwgt = g.Wgraph.adjwgt in
  Array.iter
    (fun u ->
      if partner.(u) = u then begin
        let chosen = ref (-1) in
        let best_w = ref (-1) in
        for i = xadj.(u) to xadj.(u + 1) - 1 do
          let v = adjncy.(i) in
          if v <> u && partner.(v) = v && adjwgt.(i) > !best_w then begin
            best_w := adjwgt.(i);
            chosen := v
          end
        done;
        if !chosen >= 0 then begin
          partner.(u) <- !chosen;
          partner.(!chosen) <- u
        end
      end)
    (random_permutation rng (Wgraph.n_nodes g))

let k_means rng g =
  let n = Wgraph.n_nodes g in
  if n = 0 then [||]
  else begin
    let cluster = k_means_clusters rng g in
    (* Heavy-edge matching restricted to intra-cluster edges... *)
    let partner = Array.init n (fun i -> i) in
    let intra =
      List.filter (fun (u, v, _) -> cluster.(u) = cluster.(v)) (Wgraph.edges g)
    in
    let intra = Array.of_list intra in
    Array.iter
      (fun idx ->
        let u, v, _ = intra.(idx) in
        if partner.(u) = u && partner.(v) = v then begin
          partner.(u) <- v;
          partner.(v) <- u
        end)
      (sort_edges_by_weight_rank intra);
    (* ... then make the matching maximal across clusters. *)
    k_means_maximalize rng g partner;
    partner
  end

let compute strategy rng g =
  match strategy with
  | Matching.Random_maximal -> Matching.random_maximal rng g
  | Matching.Heavy_edge -> heavy_edge rng g
  | Matching.K_means -> k_means rng g

(* One stream split off [rng] per strategy, in list order, then the
   strategy with maximal matched weight (ties: earlier in the list). *)
let best_of ?(strategies = Matching.all_strategies) rng g =
  let strategies = Array.of_list strategies in
  let states = Array.map (fun _ -> Random.State.split rng) strategies in
  let candidates =
    Array.mapi (fun i s -> (s, compute s states.(i) g)) strategies
  in
  let weigh (_, m) = Matching.matched_weight g m in
  let best = ref candidates.(0) in
  for i = 1 to Array.length candidates - 1 do
    if weigh candidates.(i) > weigh !best then best := candidates.(i)
  done;
  !best

(* Matched pairs are numbered by their smaller endpoint in ascending
   order. *)
let coarse_map g partner =
  if not (Matching.is_valid g partner) then
    invalid_arg "Coarsen.contract: invalid matching";
  let n = Wgraph.n_nodes g in
  let cmap = Array.make n (-1) in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if partner.(u) >= u then begin
      cmap.(u) <- !next;
      if partner.(u) <> u then cmap.(partner.(u)) <- !next;
      incr next
    end
  done;
  let n' = !next in
  let vwgt = Array.make n' 0 in
  for u = 0 to n - 1 do
    vwgt.(cmap.(u)) <- vwgt.(cmap.(u)) + Wgraph.node_weight g u
  done;
  (n', cmap, vwgt)

let contract g partner =
  let n', cmap, vwgt = coarse_map g partner in
  let el = Edge_list.create n' in
  Wgraph.iter_edges g (fun u v w ->
      (* Self loops in the coarse graph (intra-pair edges) are dropped by
         Edge_list; parallel edges are merged by weight addition. *)
      Edge_list.add el cmap.(u) cmap.(v) w);
  (Wgraph.build ~vwgt el, cmap)

(* Coarsen until at most [target] nodes remain, a level removes fewer
   than 5% of the nodes, or no edges remain. Returns [(graphs, maps)]:
   [graphs.(0)] is [g], [maps.(l)] sends level [l] to level [l + 1]. *)
let build ?(target = 100) ?strategies rng g0 =
  let graphs = ref [ g0 ] and maps = ref [] in
  let current = ref g0 in
  let continue = ref true in
  while !continue do
    let g = !current in
    let n = Wgraph.n_nodes g in
    if n <= target || Wgraph.n_edges g = 0 then continue := false
    else begin
      let _strategy, partner = best_of ?strategies rng g in
      let coarse, cmap = contract g partner in
      let shrunk = n - Wgraph.n_nodes coarse in
      if float_of_int shrunk < 0.05 *. float_of_int n then continue := false
      else begin
        graphs := coarse :: !graphs;
        maps := cmap :: !maps;
        current := coarse
      end
    end
  done;
  (Array.of_list (List.rev !graphs), Array.of_list (List.rev !maps))
