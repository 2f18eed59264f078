let log_src = Logs.Src.create "ppnpart.baselines" ~doc:"Baseline partitioners"

open Ppnpart_graph
open Ppnpart_partition

type stats = { part : int array; cut : int; levels : int; runtime_s : float }

let partition ?(seed = 0) g ~k =
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
    let hierarchy =
      Coarsen.build ~target:(max 30 (4 * k))
        ~strategies:[ Matching.Heavy_edge ] rng g
    in
    let levels = Coarsen.levels hierarchy in
    let coarsest = Coarsen.coarsest hierarchy in
    let refine g part = fst (Refine_kway.refine rng g ~k part) in
    let part = ref (refine coarsest (Initial.graph_growing rng coarsest ~k)) in
    for level = levels - 2 downto 0 do
      (* maps.(level) sends level -> level+1 *)
      let projected =
        Coarsen.project_one hierarchy.Coarsen.maps.(level) !part
      in
      part := refine (Coarsen.graph_at hierarchy level) projected
    done;
    finish !part levels
  end
