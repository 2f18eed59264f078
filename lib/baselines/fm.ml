open Ppnpart_graph
open Ppnpart_partition

(* Gain of moving [u] to the other side: external minus internal weight. *)
let gain_of g part u =
  Wgraph.fold_neighbors g u
    (fun acc v w -> if part.(v) = part.(u) then acc - w else acc + w)
    0

let max_passes = 8

let refine ?(balance_tolerance = 1.1) g part0 =
  let n = Wgraph.n_nodes g in
  Array.iter
    (fun p -> if p <> 0 && p <> 1 then invalid_arg "Fm.refine: not two-way")
    part0;
  let part = Array.copy part0 in
  let total = Wgraph.total_node_weight g in
  let limit =
    int_of_float (ceil (balance_tolerance *. float_of_int total /. 2.))
  in
  let side_weight = [| 0; 0 |] in
  Array.iteri
    (fun u p -> side_weight.(p) <- side_weight.(p) + Wgraph.node_weight g u)
    part0;
  let max_gain =
    let m = ref 1 in
    for u = 0 to n - 1 do
      let d = Wgraph.weighted_degree g u in
      if d > !m then m := d
    done;
    !m
  in
  let imbalance () = abs (side_weight.(0) - side_weight.(1)) in
  let balanced () = side_weight.(0) <= limit && side_weight.(1) <= limit in
  let cut = ref (Metrics.cut g part) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    let buckets = [| Bucket.create ~n ~max_gain; Bucket.create ~n ~max_gain |] in
    for u = 0 to n - 1 do
      Bucket.insert buckets.(part.(u)) u (gain_of g part u)
    done;
    (* One pass: move every node once, tracking the best balanced prefix. *)
    let moves = Array.make n (-1) in
    let n_moves = ref 0 in
    let best_prefix = ref 0 in
    let best_cut = ref !cut in
    let best_balanced = ref (balanced ()) in
    let best_imbalance = ref (imbalance ()) in
    let running_cut = ref !cut in
    let continue = ref true in
    while !continue do
      (* Candidate from each side; a move is legal if it keeps the
         destination under the limit, or strictly reduces imbalance when we
         are currently unbalanced. *)
      let legal src =
        match Bucket.peek_max buckets.(src) with
        | None -> None
        | Some (u, gu) ->
          let dst = 1 - src in
          let w = Wgraph.node_weight g u in
          if
            side_weight.(dst) + w <= limit
            || side_weight.(src) - side_weight.(dst) > w
          then Some (src, u, gu)
          else None
      in
      let candidate =
        match (legal 0, legal 1) with
        | None, None -> None
        | Some c, None | None, Some c -> Some c
        | Some (s0, u0, g0), Some (s1, u1, g1) ->
          (* Higher gain wins; ties move from the heavier side. *)
          if g0 > g1 then Some (s0, u0, g0)
          else if g1 > g0 then Some (s1, u1, g1)
          else if side_weight.(0) >= side_weight.(1) then Some (s0, u0, g0)
          else Some (s1, u1, g1)
      in
      match candidate with
      | None -> continue := false
      | Some (src, u, gu) ->
        Bucket.remove buckets.(src) u;
        let dst = 1 - src in
        part.(u) <- dst;
        side_weight.(src) <- side_weight.(src) - Wgraph.node_weight g u;
        side_weight.(dst) <- side_weight.(dst) + Wgraph.node_weight g u;
        running_cut := !running_cut - gu;
        moves.(!n_moves) <- u;
        incr n_moves;
        (* Update unlocked neighbours' gains. *)
        Wgraph.iter_neighbors g u (fun v w ->
            let b = buckets.(part.(v)) in
            if Bucket.mem b v then begin
              let delta = if part.(v) = dst then -2 * w else 2 * w in
              Bucket.adjust b v (Bucket.gain b v + delta)
            end);
        let now_balanced = balanced () in
        let better =
          if now_balanced && not !best_balanced then true
          else if now_balanced = !best_balanced then
            if now_balanced then !running_cut < !best_cut
            else imbalance () < !best_imbalance
          else false
        in
        if better then begin
          best_prefix := !n_moves;
          best_cut := !running_cut;
          best_balanced := now_balanced;
          best_imbalance := imbalance ()
        end
    done;
    (* Roll back the moves after the best prefix. *)
    for i = !n_moves - 1 downto !best_prefix do
      let u = moves.(i) in
      let src = part.(u) in
      let dst = 1 - src in
      part.(u) <- dst;
      side_weight.(src) <- side_weight.(src) - Wgraph.node_weight g u;
      side_weight.(dst) <- side_weight.(dst) + Wgraph.node_weight g u
    done;
    if !best_cut < !cut || (!best_balanced && not (balanced ())) then
      improved := true;
    cut := Metrics.cut g part
  done;
  (part, !cut)

let bisect rng g =
  let n = Wgraph.n_nodes g in
  (* Random balanced start: shuffle nodes, fill side 0 to half the total
     weight. *)
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let part = Array.make n 1 in
  let total = Wgraph.total_node_weight g in
  let acc = ref 0 in
  Array.iter
    (fun u ->
      if !acc * 2 < total then begin
        part.(u) <- 0;
        acc := !acc + Wgraph.node_weight g u
      end)
    order;
  refine g part

let kway rng g ~k =
  Recursive_bisection.kway bisect rng g ~k
