open Ppnpart_graph

let pick_heaviest g =
  let n = Wgraph.n_nodes g in
  if n = 0 then invalid_arg "Initial.pick_heaviest: empty graph";
  let best = ref 0 in
  for u = 1 to n - 1 do
    if Wgraph.node_weight g u > Wgraph.node_weight g !best then best := u
  done;
  !best

let random_kway rng g ~k =
  Array.init (Wgraph.n_nodes g) (fun _ -> Random.State.int rng k)

let graph_growing rng g ~k =
  let n = Wgraph.n_nodes g in
  let part = Array.make n (k - 1) in
  let assigned = Array.make n false in
  let total = Wgraph.total_node_weight g in
  let target = (total + k - 1) / k in
  let n_assigned = ref 0 in
  for p = 0 to k - 2 do
    if !n_assigned < n then begin
      (* Random unassigned seed. *)
      let unassigned =
        Array.of_seq
          (Seq.filter (fun u -> not assigned.(u))
             (Seq.init n (fun i -> i)))
      in
      let seed = unassigned.(Random.State.int rng (Array.length unassigned)) in
      let weight = ref 0 in
      let queue = Queue.create () in
      Queue.add seed queue;
      let in_queue = Array.make n false in
      in_queue.(seed) <- true;
      let continue = ref true in
      while !continue do
        if Queue.is_empty queue then begin
          (* Component exhausted before reaching the target: jump to any
             remaining unassigned node to keep growing this part. *)
          let next = ref (-1) in
          for u = n - 1 downto 0 do
            if (not assigned.(u)) && not in_queue.(u) then next := u
          done;
          if !next < 0 then continue := false
          else begin
            Queue.add !next queue;
            in_queue.(!next) <- true
          end
        end
        else begin
          let u = Queue.pop queue in
          if not assigned.(u) then begin
            assigned.(u) <- true;
            part.(u) <- p;
            incr n_assigned;
            weight := !weight + Wgraph.node_weight g u;
            if !weight >= target then continue := false
            else
              Wgraph.iter_neighbors g u (fun v _ ->
                  if (not assigned.(v)) && not in_queue.(v) then begin
                    Queue.add v queue;
                    in_queue.(v) <- true
                  end)
          end;
          if !n_assigned = n then continue := false
        end
      done
    end
  done;
  (* Guarantee all k labels appear when enough nodes exist: steal one node
     for every empty part from the largest part. *)
  if n >= k then begin
    let count = Array.make k 0 in
    Array.iter (fun p -> count.(p) <- count.(p) + 1) part;
    for p = 0 to k - 1 do
      if count.(p) = 0 then begin
        let donor = ref 0 in
        for q = 1 to k - 1 do
          if count.(q) > count.(!donor) then donor := q
        done;
        let moved = ref false in
        for u = 0 to n - 1 do
          if (not !moved) && part.(u) = !donor && count.(!donor) > 1 then begin
            part.(u) <- p;
            count.(!donor) <- count.(!donor) - 1;
            count.(p) <- count.(p) + 1;
            moved := true
          end
        done
      end
    done
  end;
  part

(* One greedy growth attempt from a given first seed. *)
let growth_attempt g (c : Types.constraints) first_seed =
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  let part = Array.make n (-1) in
  let load = Array.make k 0 in
  let heaviest_unassigned () =
    let best = ref (-1) in
    for u = 0 to n - 1 do
      if
        part.(u) < 0
        && (!best < 0 || Wgraph.node_weight g u > Wgraph.node_weight g !best)
      then best := u
    done;
    !best
  in
  for p = 0 to k - 1 do
    let seed = if p = 0 then first_seed else heaviest_unassigned () in
    if seed >= 0 && part.(seed) < 0 then begin
      part.(seed) <- p;
      load.(p) <- Wgraph.node_weight g seed;
      (* Absorb the most strongly connected unassigned neighbour while the
         resource bound holds. *)
      let continue = ref true in
      while !continue do
        let best = ref (-1) and best_conn = ref 0 in
        for u = 0 to n - 1 do
          if part.(u) < 0 && load.(p) + Wgraph.node_weight g u <= c.Types.rmax
          then begin
            let conn =
              Wgraph.fold_neighbors g u
                (fun acc v w -> if part.(v) = p then acc + w else acc)
                0
            in
            if conn > !best_conn then begin
              best_conn := conn;
              best := u
            end
          end
        done;
        if !best < 0 then continue := false
        else begin
          part.(!best) <- p;
          load.(p) <- load.(p) + Wgraph.node_weight g !best
        end
      done
    end
  done;
  (* Leftovers: biggest free space first within Rmax, then biggest free
     space unconditionally (the paper allows violating Rmax here). *)
  let by_weight_desc =
    List.sort
      (fun a b -> compare (Wgraph.node_weight g b) (Wgraph.node_weight g a))
      (List.filter (fun u -> part.(u) < 0) (List.init n (fun i -> i)))
  in
  List.iter
    (fun u ->
      let w = Wgraph.node_weight g u in
      let best = ref (-1) and best_free = ref min_int in
      for p = 0 to k - 1 do
        let free = c.Types.rmax - load.(p) in
        if free >= w && free > !best_free then begin
          best_free := free;
          best := p
        end
      done;
      if !best < 0 then begin
        best_free := min_int;
        for p = 0 to k - 1 do
          let free = c.Types.rmax - load.(p) in
          if free > !best_free then begin
            best_free := free;
            best := p
          end
        done
      end;
      part.(u) <- !best;
      load.(!best) <- load.(!best) + w)
    by_weight_desc;
  part

(* Fanning the restarts out over domains only pays off once a growth
   attempt is substantial; below this the spawn overhead dominates. The
   seed nodes are drawn identically either way, so the winning candidate
   does not depend on the pool's width. *)
let parallel_node_threshold = 256

let greedy_resource_growth ?(n_seeds = 10) rng g
    (c : Types.constraints) =
  let n = Wgraph.n_nodes g in
  if n = 0 then [||]
  else begin
    let n_attempts = max 1 n_seeds in
    (* Draw every seed node up front, in restart order, so the attempts
       become independent pure tasks. *)
    let seeds = Array.make n_attempts 0 in
    for i = 0 to n_attempts - 1 do
      seeds.(i) <- (if i = 0 then pick_heaviest g else Random.State.int rng n)
    done;
    let results =
      Ppnpart_obs.Span.phase
        ~args:(fun () ->
          [ ("nodes", Ppnpart_obs.Obs.Int n);
            ("attempts", Ppnpart_obs.Obs.Int n_attempts) ])
        "initial.greedy"
        (fun () ->
          Ppnpart_exec.Pool.run ~parallel:(n >= parallel_node_threshold)
            (Array.init n_attempts (fun i () ->
                 Ppnpart_obs.Span.with_result
                   ~args:(fun () ->
                     [ ("attempt", Ppnpart_obs.Obs.Int i);
                       ("seed_node", Ppnpart_obs.Obs.Int seeds.(i)) ])
                   ~result:(fun (_, (gd : Metrics.goodness)) ->
                     [ ("violation", Ppnpart_obs.Obs.Int gd.violation);
                       ("cut", Ppnpart_obs.Obs.Int gd.cut_value) ])
                   "initial.attempt"
                   (fun () ->
                     let part = growth_attempt g c seeds.(i) in
                     (part, Metrics.goodness g c part)))))
    in
    (* Earliest restart wins ties, matching the sequential fold. *)
    let best = ref 0 in
    for i = 1 to n_attempts - 1 do
      let _, gd = results.(i) and _, gd' = results.(!best) in
      if Metrics.compare_goodness gd gd' < 0 then best := i
    done;
    fst results.(!best)
  end
