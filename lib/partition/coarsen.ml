open Ppnpart_graph

(* Matched pairs are numbered by their smaller endpoint in ascending
   order — the same numbering as the Edge_list oracle in
   test/oracle/coarsen_oracle.ml, so the coarse node ids, and hence the
   whole coarse CSR, are identical between the two. *)
let coarse_map g partner =
  if not (Matching.is_valid g partner) then
    invalid_arg "Coarsen.contract: invalid matching";
  let n = Wgraph.n_nodes g in
  let cmap = Array.make n (-1) in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if partner.(u) >= u then begin
      (* u is the representative of its pair (or a singleton). *)
      cmap.(u) <- !next;
      if partner.(u) <> u then cmap.(partner.(u)) <- !next;
      incr next
    end
  done;
  let n' = !next in
  let vwgt = Array.make n' 0 in
  for u = 0 to n - 1 do
    vwgt.(cmap.(u)) <- vwgt.(cmap.(u)) + Wgraph.node_weight g u
  done;
  (n', cmap, vwgt)

(* Direct CSR -> CSR contraction. Coarse nodes are visited in id order;
   for each one, the adjacency slices of its (at most two) members are
   streamed and duplicate coarse neighbours merged through the
   workspace's generation-marked position table, then the slice is
   sorted in place by neighbour id. No edge list, no tuples — the only
   allocations are the coarse graph's own arrays. Summing duplicates is
   commutative, so the merged weights — and after sorting, the whole
   slice — match the Edge_list oracle bit for bit. *)
let contract ?workspace g partner =
  let n', cmap, vwgt = coarse_map g partner in
  let ws =
    match workspace with Some ws -> ws | None -> Workspace.create ()
  in
  let xadj = g.Wgraph.xadj
  and adjncy = g.Wgraph.adjncy
  and adjwgt = g.Wgraph.adjwgt in
  Workspace.ensure_contract ws ~coarse_nodes:n'
    ~half_edges:(Array.length adjncy);
  let mark = ws.Workspace.mark
  and pos_tbl = ws.Workspace.pos_tbl
  and cxadj = ws.Workspace.cxadj
  and cadj = ws.Workspace.cadj
  and cwgt = ws.Workspace.cwgt in
  cxadj.(0) <- 0;
  let ptr = ref 0 in
  let n = Wgraph.n_nodes g in
  for u = 0 to n - 1 do
    let p = partner.(u) in
    if p >= u then begin
      let c = cmap.(u) in
      let start = !ptr in
      let gen = Workspace.next_gen ws in
      for mi = 0 to if p = u then 0 else 1 do
        let node = if mi = 0 then u else p in
        for idx = xadj.(node) to xadj.(node + 1) - 1 do
          let cv = cmap.(adjncy.(idx)) in
          if cv <> c then
            if mark.(cv) = gen then begin
              let at = pos_tbl.(cv) in
              cwgt.(at) <- cwgt.(at) + adjwgt.(idx)
            end
            else begin
              mark.(cv) <- gen;
              pos_tbl.(cv) <- !ptr;
              cadj.(!ptr) <- cv;
              cwgt.(!ptr) <- adjwgt.(idx);
              incr ptr
            end
        done
      done;
      Int_sort.sort_pairs cadj cwgt ~lo:start ~len:(!ptr - start);
      cxadj.(c + 1) <- !ptr
    end
  done;
  let total = !ptr in
  (* The merge loop above emits each coarse slice sorted, self-loop-free
     and weight-symmetric by construction (asserted against the Edge_list
     oracle by the differential fuzz stage), so the validating
     {!Wgraph.of_csr} would re-prove a known invariant on every level. *)
  let coarse =
    Wgraph.unsafe_of_csr ~vwgt ~n:n'
      ~xadj:(Array.sub cxadj 0 (n' + 1))
      ~adjncy:(Array.sub cadj 0 total)
      ~adjwgt:(Array.sub cwgt 0 total)
      ()
  in
  (coarse, cmap)

type hierarchy = { graphs : Wgraph.t array; maps : int array array }

let levels h = Array.length h.graphs
let finest h = h.graphs.(0)
let coarsest h = h.graphs.(levels h - 1)
let graph_at h l = h.graphs.(l)

(* A level that removes fewer than this fraction of its nodes means the
   matching has stalled: coarsening stops there. *)
let min_shrink = 0.05

let build_from ?workspace ?(target = 100) ?strategies ?jobs rng g0
    ~prefix_graphs ~prefix_maps =
  let graphs = ref prefix_graphs and maps = ref prefix_maps in
  let current = ref g0 in
  let continue = ref true in
  while !continue do
    let g = !current in
    let n = Wgraph.n_nodes g in
    if n <= target || Wgraph.n_edges g = 0 then continue := false
    else begin
      let level = List.length !graphs - 1 in
      let _strategy, coarse, cmap =
        Ppnpart_obs.Span.phase_result
          ~args:(fun () ->
            [ ("level", Ppnpart_obs.Obs.Int level);
              ("nodes", Ppnpart_obs.Obs.Int n);
              ("edges", Ppnpart_obs.Obs.Int (Wgraph.n_edges g)) ])
          ~result:(fun (s, coarse, _) ->
            [ ("strategy", Ppnpart_obs.Obs.Str (Matching.strategy_name s));
              ("coarse_nodes", Ppnpart_obs.Obs.Int (Wgraph.n_nodes coarse));
              ("coarse_edges", Ppnpart_obs.Obs.Int (Wgraph.n_edges coarse))
            ])
          "coarsen.level"
          (fun () ->
            let strategy, partner =
              Matching.best_of ?workspace ?strategies ?jobs rng g
            in
            let coarse, cmap = contract ?workspace g partner in
            (strategy, coarse, cmap))
      in
      if Ppnpart_obs.Obs.recording () then
        Ppnpart_obs.Counters.sample "coarsen.ratio"
          (float_of_int (Wgraph.n_nodes coarse) /. float_of_int n);
      let shrunk = n - Wgraph.n_nodes coarse in
      if float_of_int shrunk < min_shrink *. float_of_int n then
        continue := false
      else begin
        graphs := coarse :: !graphs;
        maps := cmap :: !maps;
        current := coarse
      end
    end
  done;
  {
    graphs = Array.of_list (List.rev !graphs);
    maps = Array.of_list (List.rev !maps);
  }

let build ?workspace ?target ?strategies ?jobs rng g =
  build_from ?workspace ?target ?strategies ?jobs rng g ~prefix_graphs:[ g ]
    ~prefix_maps:[]

let extend ?workspace ?target ?strategies ?jobs rng h ~from_level =
  if from_level < 0 || from_level >= levels h then
    invalid_arg "Coarsen.extend: level out of range";
  let prefix_graphs =
    List.rev (Array.to_list (Array.sub h.graphs 0 (from_level + 1)))
  in
  let prefix_maps =
    List.rev (Array.to_list (Array.sub h.maps 0 from_level))
  in
  build_from ?workspace ?target ?strategies ?jobs rng h.graphs.(from_level)
    ~prefix_graphs ~prefix_maps

let project_one map coarse_part = Array.map (fun c -> coarse_part.(c)) map

let project h ~coarse_level part =
  if coarse_level < 0 || coarse_level >= levels h then
    invalid_arg "Coarsen.project: level out of range";
  let current = ref part in
  for l = coarse_level - 1 downto 0 do
    current := project_one h.maps.(l) !current
  done;
  !current

let pp ppf h =
  Format.fprintf ppf "@[<v>hierarchy (%d levels):@," (levels h);
  Array.iteri
    (fun l g ->
      Format.fprintf ppf "  level %d: %d nodes, %d edges@," l
        (Wgraph.n_nodes g) (Wgraph.n_edges g))
    h.graphs;
  Format.fprintf ppf "@]"
