open Ppnpart_graph

type strategy = Random_maximal | Heavy_edge | K_means

let all_strategies = [ Random_maximal; Heavy_edge; K_means ]

let strategy_name = function
  | Random_maximal -> "random"
  | Heavy_edge -> "heavy-edge"
  | K_means -> "k-means"

(* Static span / counter names per strategy: no string building on the
   hot path, whether tracing is on or off. *)
let span_name = function
  | Random_maximal -> "matching.random"
  | Heavy_edge -> "matching.heavy-edge"
  | K_means -> "matching.k-means"

let pairs_counter = function
  | Random_maximal -> "coarsen.pairs.random"
  | Heavy_edge -> "coarsen.pairs.heavy-edge"
  | K_means -> "coarsen.pairs.k-means"

let random_permutation rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let random_maximal rng g =
  let n = Wgraph.n_nodes g in
  let partner = Array.init n (fun i -> i) in
  let order = random_permutation rng n in
  Array.iter
    (fun u ->
      if partner.(u) = u then begin
        (* Reservoir-sample one unmatched neighbour uniformly. *)
        let chosen = ref (-1) in
        let seen = ref 0 in
        Wgraph.iter_neighbors g u (fun v _ ->
            if v <> u && partner.(v) = v then begin
              incr seen;
              if Random.State.int rng !seen = 0 then chosen := v
            end);
        if !chosen >= 0 then begin
          partner.(u) <- !chosen;
          partner.(!chosen) <- u
        end
      end)
    order;
  partner

(* --- SoA edge machinery (the allocation-light path) ----------------

   The edge-sorting strategies used to materialize [Wgraph.edges] (a
   boxed-tuple list), shuffle it, and sort an index array through a
   closure over the tuples — polymorphic compare on every coarsening
   level. They now stream the edges into flat int arrays taken from a
   {!Workspace} and sort packed [(weight lsl shift) lor rank] int keys
   in place. The processed order is the exact (weight descending, rank
   ascending) total order of the tuple comparator, so the resulting
   matching — and hence the whole hierarchy — is bit-identical to the
   boxed-tuple oracle in test/oracle/coarsen_oracle.ml (asserted by the
   differential fuzz stage). *)

(* Smallest [s] with [m <= 2^s]: every rank in [0 .. m-1] fits in [s]
   bits. *)
let key_shift m =
  let s = ref 0 in
  while 1 lsl !s < m do
    incr s
  done;
  !s

(* Stream the undirected edges into [bufs] in {!Wgraph.iter_edges} order
   (lexicographic, the same order [Wgraph.edges] sorts into); returns
   (count, max weight). [keep] filters; buffers must already be sized. *)
let fill_edges_soa g (bufs : Workspace.edge_bufs) keep =
  let count = ref 0 and wmax = ref 0 in
  Wgraph.iter_edges g (fun u v w ->
      if keep u v then begin
        bufs.Workspace.e_src.(!count) <- u;
        bufs.Workspace.e_dst.(!count) <- v;
        bufs.Workspace.e_wgt.(!count) <- w;
        if w > !wmax then wmax := w;
        incr count
      end);
  (!count, !wmax)

(* Apply [f] to edge indices in (weight descending, rank ascending)
   order, where rank [i] names edge [edge_of_rank i] of [bufs]. Packed
   int keys when the weights fit ([wmax] below [max_int lsr (shift+1)],
   i.e. always in practice); an explicit int comparator — same total
   order, no tuples — otherwise. *)
let iter_ranked_edges (bufs : Workspace.edge_bufs) m wmax ~edge_of_rank f =
  if m > 0 then begin
    let shift = key_shift m in
    if wmax <= max_int lsr (shift + 1) then begin
      let key = bufs.Workspace.e_key in
      for i = 0 to m - 1 do
        key.(i) <-
          ((wmax - bufs.Workspace.e_wgt.(edge_of_rank i)) lsl shift) lor i
      done;
      Int_sort.sort_keys key ~lo:0 ~len:m;
      let mask = (1 lsl shift) - 1 in
      for s = 0 to m - 1 do
        f (edge_of_rank (key.(s) land mask))
      done
    end
    else begin
      let order = Array.init m (fun i -> i) in
      Array.sort
        (fun i j ->
          let wi = bufs.Workspace.e_wgt.(edge_of_rank i)
          and wj = bufs.Workspace.e_wgt.(edge_of_rank j) in
          if wi <> wj then compare wj wi else compare i j)
        order;
      Array.iter (fun i -> f (edge_of_rank i)) order
    end
  end

let heavy_edge ?workspace rng g =
  let n = Wgraph.n_nodes g in
  let partner = Array.init n (fun i -> i) in
  let m = Wgraph.n_edges g in
  let bufs =
    (match workspace with Some ws -> ws | None -> Workspace.create ())
      .Workspace.he
  in
  Workspace.ensure_edges bufs ~m ~perm:true;
  let m, wmax = fill_edges_soa g bufs (fun _ _ -> true) in
  (* Shuffle a rank permutation with the same draws the tuple oracle
     spends shuffling its edge array, so the tie-breaking rank — and the
     matching — is identical. *)
  let perm = bufs.Workspace.e_perm in
  for i = 0 to m - 1 do
    perm.(i) <- i
  done;
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  iter_ranked_edges bufs m wmax
    ~edge_of_rank:(fun i -> perm.(i))
    (fun e ->
      let u = bufs.Workspace.e_src.(e) and v = bufs.Workspace.e_dst.(e) in
      if partner.(u) = u && partner.(v) = v then begin
        partner.(u) <- v;
        partner.(v) <- u
      end);
  partner

(* Roughly this many nodes per k-means cluster. *)
let cluster_size = 8

let k_means_clusters rng g =
  let n = Wgraph.n_nodes g in
  let nclusters = max 1 ((n + cluster_size - 1) / cluster_size) in
  (* Seeds spread across the node-weight range: sort by weight, take
     evenly spaced nodes ("clusters are formed on the basis of their
     weight"). *)
  let by_weight = Array.init n (fun i -> i) in
  (* Int.compare, not polymorphic compare: same sign on every pair, so
     the resulting permutation is identical, minus the C call. *)
  Array.sort
    (fun a b -> Int.compare (Wgraph.node_weight g a) (Wgraph.node_weight g b))
    by_weight;
  let cluster = Array.make n (-1) in
  let seeds = Array.init nclusters (fun c -> by_weight.(c * n / nclusters)) in
  Array.iteri (fun c s -> cluster.(s) <- c) seeds;
  (* Grow clusters: nodes join the cluster they are most strongly
     connected to; isolated-from-clusters nodes go to the seed of nearest
     weight. Strengths accumulate in flat generation-marked arrays (a
     fresh hash table per node was the dominant allocation of the whole
     coarsening phase). The running maximum makes the tie-break explicit
     and order-independent: the cluster whose cumulative strength reaches
     the maximum first in adjacency order wins. *)
  let strength = Array.make nclusters 0 in
  let touched = Array.make nclusters 0 in
  let gen = ref 0 in
  let order = random_permutation rng n in
  (* The sweeps below walk the CSR arrays directly instead of through
     [Wgraph.iter_neighbors]: the iterator closure would capture the
     per-node accumulators and be re-allocated for every node. *)
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
  (* One k-means refinement sweep on the weight centroids. The centroids
     are those of the grown clusters, fixed for the whole sweep, so they
     are computed once up front. *)
  let sum = Array.make nclusters 0 and cnt = Array.make nclusters 0 in
  for u = 0 to n - 1 do
    sum.(cluster.(u)) <- sum.(cluster.(u)) + vwgt.(u);
    cnt.(cluster.(u)) <- cnt.(cluster.(u)) + 1
  done;
  let mean =
    Array.init nclusters (fun c -> if cnt.(c) = 0 then 0 else sum.(c) / cnt.(c))
  in
  for u = 0 to n - 1 do
    (* Move u to the adjacent cluster with the nearest weight centroid. *)
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

let k_means ?workspace rng g =
  let n = Wgraph.n_nodes g in
  if n = 0 then [||]
  else begin
    let cluster = k_means_clusters rng g in
    (* Heavy-edge matching restricted to intra-cluster edges, streamed
       into the workspace's SoA buffers (rank = position in the
       lexicographic edge order, exactly the tuple oracle's
       filtered-array index)... *)
    let partner = Array.init n (fun i -> i) in
    let bufs =
      (match workspace with Some ws -> ws | None -> Workspace.create ())
        .Workspace.km
    in
    Workspace.ensure_edges bufs ~m:(Wgraph.n_edges g) ~perm:false;
    let mi, wmax =
      fill_edges_soa g bufs (fun u v -> cluster.(u) = cluster.(v))
    in
    iter_ranked_edges bufs mi wmax
      ~edge_of_rank:(fun i -> i)
      (fun e ->
        let u = bufs.Workspace.e_src.(e) and v = bufs.Workspace.e_dst.(e) in
        if partner.(u) = u && partner.(v) = v then begin
          partner.(u) <- v;
          partner.(v) <- u
        end);
    (* ... then make the matching maximal across clusters. *)
    k_means_maximalize rng g partner;
    partner
  end

let compute ?workspace strategy rng g =
  match strategy with
  | Random_maximal -> random_maximal rng g
  | Heavy_edge -> heavy_edge ?workspace rng g
  | K_means -> k_means ?workspace rng g

let matched_weight g partner =
  let acc = ref 0 in
  Array.iteri
    (fun u v -> if u < v then acc := !acc + Wgraph.edge_weight g u v)
    partner;
  !acc

let count_matched_pairs partner =
  let acc = ref 0 in
  Array.iteri (fun u v -> if u < v then incr acc) partner;
  !acc

let is_valid g partner =
  let n = Wgraph.n_nodes g in
  Array.length partner = n
  &&
  let ok = ref true in
  Array.iteri
    (fun u v ->
      if v < 0 || v >= n then ok := false
      else if partner.(v) <> u then ok := false
      else if u <> v && not (Wgraph.mem_edge g u v) then ok := false)
    partner;
  !ok

(* Racing strategies below this size is slower than computing them
   sequentially; the RNG stream derivation is identical either way, so
   the result does not depend on the pool's width. *)
let parallel_node_threshold = 512

let best_of ?workspace ?(strategies = all_strategies) rng g =
  if strategies = [] then invalid_arg "Matching.best_of: no strategies";
  let strategies = Array.of_list strategies in
  let n_strats = Array.length strategies in
  (* Derive one independent stream per strategy, in strategy order, so
     candidates can be computed concurrently yet deterministically. *)
  let states = Array.make n_strats rng in
  for i = 0 to n_strats - 1 do
    states.(i) <- Random.State.split rng
  done;
  let candidates =
    Ppnpart_exec.Pool.run
      ~parallel:(Wgraph.n_nodes g >= parallel_node_threshold)
      (Array.init n_strats (fun i () ->
           let s = strategies.(i) in
           Ppnpart_obs.Span.with_ (span_name s) (fun () ->
               let m = compute ?workspace s states.(i) g in
               if Ppnpart_obs.Obs.recording () then
                 Ppnpart_obs.Counters.add (pairs_counter s)
                   (count_matched_pairs m);
               (s, m))))
  in
  let weigh (_, m) = matched_weight g m in
  let best = ref candidates.(0) in
  for i = 1 to n_strats - 1 do
    if weigh candidates.(i) > weigh !best then best := candidates.(i)
  done;
  !best
