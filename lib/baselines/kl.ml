open Ppnpart_graph

(* D value of node u: external minus internal connection weight. *)
let d_value g part u =
  Wgraph.fold_neighbors g u
    (fun acc v w -> if part.(v) = part.(u) then acc - w else acc + w)
    0

let one_pass g part =
  let n = Wgraph.n_nodes g in
  let d = Array.init n (fun u -> d_value g part u) in
  let locked = Array.make n false in
  let side u = part.(u) in
  (* The sequence of chosen swaps with their gains. *)
  let swaps = ref [] in
  let free_count = Array.make 2 0 in
  Array.iter (fun p -> free_count.(p) <- free_count.(p) + 1) part;
  let rounds = min free_count.(0) free_count.(1) in
  for _ = 1 to rounds do
    (* Best unlocked pair (a in side 0, b in side 1) by
       gain = D_a + D_b - 2 w(a,b). Scanning the top few D values on each
       side keeps this near O(n log n) without changing the result in
       practice; we scan all pairs among the 8 best of each side. *)
    let top side_id =
      let candidates = ref [] in
      for u = 0 to n - 1 do
        if (not locked.(u)) && side u = side_id then
          candidates := u :: !candidates
      done;
      let sorted =
        List.sort (fun a b -> compare d.(b) d.(a)) !candidates
      in
      List.filteri (fun i _ -> i < 8) sorted
    in
    let best = ref None in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            let gain = d.(a) + d.(b) - (2 * Wgraph.edge_weight g a b) in
            match !best with
            | Some (_, _, gain') when gain' >= gain -> ()
            | _ -> best := Some (a, b, gain))
          (top 1))
      (top 0);
    match !best with
    | None -> ()
    | Some (a, b, gain) ->
      locked.(a) <- true;
      locked.(b) <- true;
      swaps := (a, b, gain) :: !swaps;
      (* Update D values as if a and b had been swapped. *)
      let update u =
        if not locked.(u) then begin
          let wau = Wgraph.edge_weight g u a
          and wbu = Wgraph.edge_weight g u b in
          if side u = side a then d.(u) <- d.(u) + (2 * wau) - (2 * wbu)
          else d.(u) <- d.(u) + (2 * wbu) - (2 * wau)
        end
      in
      Wgraph.iter_neighbors g a (fun v _ -> update v);
      Wgraph.iter_neighbors g b (fun v _ -> update v)
  done;
  (* Best prefix of the swap sequence. *)
  let seq = Array.of_list (List.rev !swaps) in
  let best_k = ref 0 and best_sum = ref 0 and sum = ref 0 in
  Array.iteri
    (fun i (_, _, gain) ->
      sum := !sum + gain;
      if !sum > !best_sum then begin
        best_sum := !sum;
        best_k := i + 1
      end)
    seq;
  for i = 0 to !best_k - 1 do
    let a, b, _ = seq.(i) in
    let pa = part.(a) in
    part.(a) <- part.(b);
    part.(b) <- pa
  done;
  !best_sum

let max_passes = 8

let refine g part0 =
  Array.iter
    (fun p -> if p <> 0 && p <> 1 then invalid_arg "Kl.refine: not two-way")
    part0;
  let part = Array.copy part0 in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    incr passes;
    improved := one_pass g part > 0
  done;
  (part, Ppnpart_partition.Metrics.cut g part)

let bisect rng g =
  let n = Wgraph.n_nodes g in
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let part = Array.make n 1 in
  Array.iteri (fun rank u -> if rank < n / 2 then part.(u) <- 0) order;
  refine g part
