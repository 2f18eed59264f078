let log_src = Logs.Src.create "ppnpart.baselines" ~doc:"Baseline partitioners"

open Ppnpart_graph
open Ppnpart_partition

type initial = Graph_growing | Recursive_bisection

type refinement = Greedy | Fm

type stats = { part : int array; cut : int; levels : int; runtime_s : float }

let partition ?(seed = 0) ?(imbalance = 1.03) ?coarsen_target
    ?(refinement = Greedy) ?(initial = Graph_growing) g ~k =
  if k < 1 then invalid_arg "Metis_like.partition: k < 1";
  let t0 = Unix.gettimeofday () in
  let rng = Random.State.make [| seed; 0x4d45 |] in
  let n = Wgraph.n_nodes g in
  let finish part levels =
    {
      part;
      cut = Metrics.cut g part;
      levels;
      runtime_s = Unix.gettimeofday () -. t0;
    }
  in
  if n = 0 then finish [||] 0
  else if n <= k then finish (Array.init n (fun i -> i)) 0
  else begin
    let target = Option.value coarsen_target ~default:(max 30 (4 * k)) in
    let hierarchy =
      Coarsen.build ~target ~strategies:[ Matching.Heavy_edge ] rng g
    in
    let levels = Coarsen.levels hierarchy in
    let coarsest = Coarsen.coarsest hierarchy in
    let refine g part =
      match refinement with
      | Greedy -> fst (Refine_kway.refine ~imbalance rng g ~k part)
      | Fm -> fst (Refine_kway.refine_fm ~imbalance g ~k part)
    in
    let seed_part =
      match initial with
      | Graph_growing -> Initial.graph_growing rng coarsest ~k
      | Recursive_bisection ->
        Recursive_bisection.kway (fun rng g -> Fm.bisect rng g) rng coarsest ~k
    in
    let part = ref (refine coarsest seed_part) in
    for level = levels - 2 downto 0 do
      let projected =
        Coarsen.project_one
          (* maps.(level) sends level -> level+1 *)
          (let h = hierarchy in
           h.Coarsen.maps.(level))
          !part
      in
      part := refine (Coarsen.graph_at hierarchy level) projected
    done;
    finish !part levels
  end
