open Ppnpart_graph

(* [g]'s CSR arrays [(xadj, adjncy, adjwgt)] with row [u] replaced by
   [f] applied to its [(neighbour, weight)] list, with no check: how the
   validator tests build a deliberately corrupted graph. *)
let with_row g u f =
  let n = Wgraph.n_nodes g in
  let rows =
    Array.init n (fun x ->
        List.rev (Wgraph.fold_neighbors g x (fun l v w -> (v, w) :: l) []))
  in
  rows.(u) <- f rows.(u);
  let xadj = Array.make (n + 1) 0 in
  Array.iteri (fun x r -> xadj.(x + 1) <- xadj.(x) + List.length r) rows;
  let flat = List.concat (Array.to_list rows) in
  (xadj, Array.of_list (List.map fst flat), Array.of_list (List.map snd flat))
