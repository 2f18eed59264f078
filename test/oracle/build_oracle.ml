(* Reference edge-list builder: the boxed-tuple path [Wgraph.build]
   took before it moved onto [Wgraph.of_soa_edges], kept as the
   differential oracle of the shipped builder. Every edge becomes a
   canonical [(min u v, max u v, w)] tuple, one polymorphic sort brings
   equal pairs together, runs merge by weight addition and self loops
   drop out; the CSR arrays are then filled from per-node neighbour
   lists sorted with [compare].

   Usage: [Build_oracle.csr n edges] against the [xadj]/[adjncy]/[adjwgt]
   arrays of [Wgraph.of_edges n edges] — they must agree array for
   array. *)

(* The deduplicated edge array: each unordered pair once as
   [(min u v, max u v, total_weight)], sorted lexicographically, self
   loops removed. *)
let normalized edges =
  let canon (u, v, w) = if u <= v then (u, v, w) else (v, u, w) in
  let arr = Array.of_list (List.map canon edges) in
  Array.sort compare arr;
  (* Single pass merging runs of equal (u, v) pairs, skipping self loops.
     [arr] is scanned in ascending order and runs are emitted as they
     close, so the output is already sorted — no second sort needed. *)
  let n = Array.length arr in
  let out = Array.make n (0, 0, 0) in
  let filled = ref 0 in
  let i = ref 0 in
  while !i < n do
    let u, v, w = arr.(!i) in
    let acc = ref w in
    incr i;
    while
      !i < n
      &&
      let u', v', _ = arr.(!i) in
      u' = u && v' = v
    do
      let _, _, w' = arr.(!i) in
      acc := !acc + w';
      incr i
    done;
    if u <> v then begin
      out.(!filled) <- (u, v, !acc);
      incr filled
    end
  done;
  Array.sub out 0 !filled

let csr n edges =
  let rows = Array.make n [] in
  Array.iter
    (fun (u, v, w) ->
      rows.(u) <- (v, w) :: rows.(u);
      rows.(v) <- (u, w) :: rows.(v))
    (normalized edges);
  let rows = Array.map (List.sort compare) rows in
  let xadj = Array.make (n + 1) 0 in
  Array.iteri (fun u r -> xadj.(u + 1) <- xadj.(u) + List.length r) rows;
  let flat = Array.of_list (List.concat (Array.to_list rows)) in
  (xadj, Array.map fst flat, Array.map snd flat)
