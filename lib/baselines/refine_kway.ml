open Ppnpart_graph
open Ppnpart_partition

let max_passes = 8

let refine ?(imbalance = 1.03) rng g ~k part0 =
  let n = Wgraph.n_nodes g in
  Types.check_partition ~n ~k part0;
  let part = Array.copy part0 in
  let total = Wgraph.total_node_weight g in
  let limit =
    int_of_float (ceil (imbalance *. float_of_int total /. float_of_int k))
  in
  let load = Array.make k 0 in
  let members = Array.make k 0 in
  Array.iteri
    (fun u p ->
      load.(p) <- load.(p) + Wgraph.node_weight g u;
      members.(p) <- members.(p) + 1)
    part;
  let conn = Array.make k 0 in
  let order = Array.init n (fun i -> i) in
  let shuffle () =
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done
  in
  let moved = ref true in
  let passes = ref 0 in
  while !moved && !passes < max_passes do
    moved := false;
    incr passes;
    shuffle ();
    Array.iter
      (fun u ->
        let p = part.(u) in
        if members.(p) > 1 then begin
          Array.fill conn 0 k 0;
          let boundary = ref false in
          Wgraph.iter_neighbors g u (fun v w ->
              conn.(part.(v)) <- conn.(part.(v)) + w;
              if part.(v) <> p then boundary := true);
          if !boundary then begin
            let w_u = Wgraph.node_weight g u in
            let best = ref (-1) and best_gain = ref 0 in
            for q = 0 to k - 1 do
              if q <> p && conn.(q) > 0 && load.(q) + w_u <= limit then begin
                let gain = conn.(q) - conn.(p) in
                let better =
                  gain > !best_gain
                  || (gain = !best_gain && gain >= 0 && !best >= 0
                      && load.(q) < load.(!best))
                  || (gain = 0 && !best < 0 && load.(q) + w_u < load.(p))
                in
                if better && (gain > 0 || load.(q) + w_u < load.(p)) then begin
                  best := q;
                  best_gain := gain
                end
              end
            done;
            if !best >= 0 then begin
              let q = !best in
              part.(u) <- q;
              load.(p) <- load.(p) - w_u;
              load.(q) <- load.(q) + w_u;
              members.(p) <- members.(p) - 1;
              members.(q) <- members.(q) + 1;
              if !best_gain > 0 then moved := true
            end
          end
        end)
      order
  done;
  (part, Metrics.cut g part)
