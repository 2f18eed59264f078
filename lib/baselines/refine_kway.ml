open Ppnpart_graph
open Ppnpart_partition

(* Best legal target of [u] under the balance limit: maximizes
   conn(t) - conn(p); returns (gain, target) or None. *)
let best_move g part load members limit conn ~k u =
  let p = part.(u) in
  if members.(p) <= 1 then None
  else begin
    Array.fill conn 0 k 0;
    let boundary = ref false in
    Wgraph.iter_neighbors g u (fun v w ->
        conn.(part.(v)) <- conn.(part.(v)) + w;
        if part.(v) <> p then boundary := true);
    if not !boundary then None
    else begin
      let w_u = Wgraph.node_weight g u in
      let best = ref None in
      for t = 0 to k - 1 do
        if t <> p && conn.(t) > 0 && load.(t) + w_u <= limit then begin
          let gain = conn.(t) - conn.(p) in
          match !best with
          | Some (gain', _) when gain' >= gain -> ()
          | _ -> best := Some (gain, t)
        end
      done;
      !best
    end
  end

let refine_fm ?workspace ?(max_passes = 8) ?(imbalance = 1.03) g ~k part0 =
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
  let max_gain =
    match workspace with
    | Some ws -> Workspace.cut_cap ws g
    | None ->
      let m = ref 1 in
      for u = 0 to n - 1 do
        let d = Wgraph.weighted_degree g u in
        if d > !m then m := d
      done;
      !m
  in
  let conn = Array.make k 0 in
  let cut = ref (Metrics.cut g part) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    (* A reused oversized bucket preserves behaviour exactly: slots are
       offset by the creation-time bound, so relative gain order and the
       LIFO tie order within a slot are unchanged. *)
    let bucket =
      match workspace with
      | Some ws -> Workspace.bucket ws ~n ~max_gain
      | None -> Bucket.create ~n ~max_gain
    in
    for u = 0 to n - 1 do
      match best_move g part load members limit conn ~k u with
      | Some (gain, _) -> Bucket.insert bucket u gain
      | None -> ()
    done;
    let moves = Array.make n (-1, -1) in
    let n_moves = ref 0 in
    let running = ref !cut in
    let best_cut = ref !cut and best_prefix = ref 0 in
    let continue = ref true in
    while !continue do
      match Bucket.pop_max bucket with
      | None -> continue := false
      | Some (u, _) -> (
        (* Loads may have shifted since insertion: recompute. *)
        match best_move g part load members limit conn ~k u with
        | None -> ()
        | Some (gain, t) ->
          let p = part.(u) in
          let w_u = Wgraph.node_weight g u in
          part.(u) <- t;
          load.(p) <- load.(p) - w_u;
          load.(t) <- load.(t) + w_u;
          members.(p) <- members.(p) - 1;
          members.(t) <- members.(t) + 1;
          running := !running - gain;
          moves.(!n_moves) <- (u, p);
          incr n_moves;
          if !running < !best_cut then begin
            best_cut := !running;
            best_prefix := !n_moves
          end;
          (* Refresh unlocked neighbours' queued gains. *)
          Wgraph.iter_neighbors g u (fun v _ ->
              if Bucket.mem bucket v then begin
                Bucket.remove bucket v;
                match best_move g part load members limit conn ~k v with
                | Some (gain', _) -> Bucket.insert bucket v gain'
                | None -> ()
              end))
    done;
    (* Roll back to the best prefix. *)
    for i = !n_moves - 1 downto !best_prefix do
      let u, from = moves.(i) in
      let t = part.(u) in
      let w_u = Wgraph.node_weight g u in
      part.(u) <- from;
      load.(t) <- load.(t) - w_u;
      load.(from) <- load.(from) + w_u;
      members.(t) <- members.(t) - 1;
      members.(from) <- members.(from) + 1
    done;
    if !best_cut < !cut then improved := true;
    cut := !best_cut
  done;
  (part, Metrics.cut g part)

let refine ?(max_passes = 8) ?(imbalance = 1.03) rng g ~k part0 =
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
