open Ppnpart_graph
open Ppnpart_partition
module Pool = Ppnpart_exec.Pool

type result = {
  part : int array;
  feasible : bool;
  goodness : Metrics.goodness;
  report : Metrics.report;
  quality : Metrics.quality;
  cycles_used : int;
  levels : int;
  runtime_s : float;
  history : Metrics.goodness list;
}

let src = Logs.Src.create "ppnpart.gp" ~doc:"GP partitioner"

module Log = (val Logs.src_log src : Logs.LOG)

(* Seed + refine the coarsest graph, then project down to the finest graph
   refining at every level. Returns the finest-level partition and its
   goodness, read from the refinement state (O(k²), no graph pass).

   Two seedings compete on the coarsest graph: the paper's greedy
   resource-bounded growth (Section IV.B) and — the "partitioning phase
   (randomly)" of the cyclic scheme (Section IV.C) — a uniformly random
   assignment; the refined candidate of better goodness descends. *)
let descend (cfg : Config.t) ?workspace rng hierarchy c =
  Ppnpart_obs.Span.phase
    ~args:(fun () ->
      let coarsest = Coarsen.coarsest hierarchy in
      [ ("levels", Ppnpart_obs.Obs.Int (Coarsen.levels hierarchy));
        ("coarsest_nodes", Ppnpart_obs.Obs.Int (Wgraph.n_nodes coarsest));
        ("coarsest_edges", Ppnpart_obs.Obs.Int (Wgraph.n_edges coarsest)) ])
    "gp.descend"
  @@ fun () ->
  let checking = Ppnpart_check.Check.enabled () in
  let ws =
    match workspace with Some w -> w | None -> Workspace.create ()
  in
  let coarsest = Coarsen.coarsest hierarchy in
  let refine_initial initial =
    Refine_constrained.refine ~workspace:ws rng coarsest c initial
  in
  let greedy =
    Ppnpart_obs.Span.with_ "gp.seed.greedy" (fun () ->
        refine_initial
          (Initial.greedy_resource_growth ~n_seeds:cfg.Config.n_initial_seeds
             rng coarsest c))
  in
  let random =
    Ppnpart_obs.Span.with_ "gp.seed.random" (fun () ->
        refine_initial (Initial.random_kway rng coarsest ~k:c.Types.k))
  in
  let greedy_wins = Metrics.compare_goodness (snd greedy) (snd random) <= 0 in
  Ppnpart_obs.Span.instant
    ~args:(fun () ->
      [ ("winner",
         Ppnpart_obs.Obs.Str (if greedy_wins then "greedy" else "random"))
      ])
    "gp.seed.winner";
  let seed_part, _ = if greedy_wins then greedy else random in
  if checking then
    Ppnpart_check.Check.partition ~site:"gp.seed" coarsest c seed_part;
  (* State-passing descent: the winning seed becomes a cached state once,
     and every un-coarsening level initializes the fine state by
     projecting the coarse one in place (bandwidth matrix, loads, cut and
     excesses are projection-invariant) instead of recomputing from the
     labels — the refinement itself then runs in place on the state. *)
  let st = ref (Part_state.init ~workspace:ws coarsest c seed_part) in
  for level = Coarsen.levels hierarchy - 2 downto 0 do
    let fine_g = Coarsen.graph_at hierarchy level in
    Ppnpart_obs.Span.phase
      ~args:(fun () ->
        [ ("level", Ppnpart_obs.Obs.Int level);
          ("nodes", Ppnpart_obs.Obs.Int (Wgraph.n_nodes fine_g));
          ("edges", Ppnpart_obs.Obs.Int (Wgraph.n_edges fine_g)) ])
      "gp.uncoarsen"
      (fun () ->
        let map = hierarchy.Coarsen.maps.(level) in
        let coarse_labels = if checking then Part_state.snapshot !st else [||] in
        let fine_st =
          Part_state.init_projected ~map !st (Coarsen.graph_at hierarchy level)
        in
        if checking then begin
          Ppnpart_check.Check.projection ~site:"gp.uncoarsen.project" ~map
            ~coarse:coarse_labels ~fine:fine_st.Part_state.part ();
          Ppnpart_check.Check.part_state ~site:"gp.uncoarsen.project"
            fine_st
        end;
        Refine_constrained.refine_state rng fine_st;
        if checking then
          Ppnpart_check.Check.partition ~site:"gp.uncoarsen.refined"
            (Coarsen.graph_at hierarchy level)
            c fine_st.Part_state.part;
        st := fine_st)
  done;
  (Part_state.snapshot !st, Part_state.goodness !st)

(* One speculative partial V-cycle. Every cycle draws its randomness from
   a private stream derived from [(seed, cycle_index)] and re-coarsens
   from the base hierarchy, so cycle [i] is a pure function of the input
   and [i]: candidates can be evaluated concurrently in any order and the
   outcome is independent of the domain count. A cycle runs as a pool
   task, so its inner phases see a pool width of 1 — the parallelism
   budget is already spent on the cycles themselves. *)
let run_cycle (cfg : Config.t) ?workspace (c : Types.constraints)
    base_hierarchy i =
  Ppnpart_obs.Span.phase_result
    ~args:(fun () -> [ ("cycle", Ppnpart_obs.Obs.Int i) ])
    ~result:(fun (_, (gd : Metrics.goodness), from_level) ->
      [ ("from_level", Ppnpart_obs.Obs.Int from_level);
        ("violation", Ppnpart_obs.Obs.Int gd.violation);
        ("cut", Ppnpart_obs.Obs.Int gd.cut_value) ])
    "gp.cycle"
  @@ fun () ->
  (* Counted here, in the cycle's own buffer, so discarded speculative
     cycles are not counted and the parent buffer stays free of
     wave-shaped (width-dependent) events. *)
  Ppnpart_obs.Counters.incr "gp.cycles";
  let rng = Random.State.make [| cfg.Config.seed; 0x6770; i |] in
  let levels = Coarsen.levels base_hierarchy in
  let from_level = if levels <= 1 then 0 else Random.State.int rng levels in
  (* "Coarsened back to the lowest level" (Section IV): every cycle draws
     a coarsening depth between the configured target and the deepest
     useful level, so retries explore coarse clusterings the first
     descent never saw. The deepest target is coarse enough that initial
     partitioning effectively places whole clusters, but keeps at least
     two candidate nodes per part. *)
  let deep_target = max (2 * c.Types.k) 8 in
  let target =
    if deep_target >= cfg.Config.coarsen_target then deep_target
    else
      deep_target
      + Random.State.int rng (cfg.Config.coarsen_target - deep_target + 1)
  in
  let h =
    Coarsen.extend ?workspace ~target ~strategies:cfg.Config.strategies rng
      base_hierarchy ~from_level
  in
  let part, gd = descend cfg ?workspace rng h c in
  (part, gd, from_level)

(* With at least as many parts as nodes, one node per part is *not*
   automatically right: it cuts every edge, and the pairwise traffic can
   exceed Bmax even though grouping nodes would be feasible — reporting
   it as the answer can turn a feasible instance into a false
   infeasibility. For tiny graphs enumerate every canonical set
   partition (restricted growth strings; Bell(10) = 115 975 candidates
   at most) and keep the best goodness. Larger [n <= k] instances run
   the normal multilevel pipeline. *)
let exhaustive_limit = 10

(* Speculative V-cycle waves pay a fixed price: a fresh domain spawn per
   worker per wave, plus the cycles past the stopping point whose work is
   discarded. On small graphs one whole cycle costs less than that
   overhead, so 4-wide waves used to run *slower* than sequential; below
   this many nodes the waves run one cycle at a time instead (mirroring
   [Matching.parallel_node_threshold] for the strategy races).
   Determinism is unaffected — the wave fold already reproduces the
   sequential schedule exactly at every width. *)
let parallel_cycle_threshold = 4096

(* Constraint slack can be tight enough that the feasible set is a
   needle: every V-cycle candidate lands in the same infeasible basin
   and single-move FM refinement cannot climb out (observed on planted
   instances with 25% bandwidth slack). When the whole cycle budget ends
   infeasible on a small graph, one bounded tabu polish — deterministic,
   move-many-times — escapes such basins. It runs only where the answer
   would otherwise be "infeasible", so every instance GP already solves
   is returned bit-for-bit unchanged. *)
let tabu_rescue_limit = 512

(* The rescue, shared by every path that can end infeasible: on a
   small infeasible answer [(part, goodness, history)], polish it with
   tabu search and keep the result only if it compares better, with its
   goodness pushed on [history] (newest first). [workspace] is forced
   only when the polish runs. Also returns whether it replaced the
   answer. [site] names the mode in check sites. *)
let tabu_rescue ~site ~workspace g c ((part, gd, history) as answer) =
  let n = Wgraph.n_nodes g in
  if gd.Metrics.violation = 0 || n > tabu_rescue_limit then (answer, false)
  else
    let rescued, gd' =
      Refine_tabu.refine ~iterations:(100 + (20 * n))
        ~workspace:(Lazy.force workspace) g c part
    in
    if Metrics.compare_goodness gd' gd >= 0 then (answer, false)
    else begin
      if Ppnpart_check.Check.enabled () then
        Ppnpart_check.Check.partition ~site:(site ^ ".rescue") g c rescued;
      ((rescued, gd', gd' :: history), true)
    end

(* The step hybrid mode and the incremental repartition share: refine
   the state in place, snapshot it, then the rescue. Goodness comes from
   the state throughout; the seed's opens the history. *)
let refine_and_rescue ~site ~workspace rng (st : Part_state.t) =
  let g = st.Part_state.g and c = st.Part_state.c in
  let seed_goodness = Part_state.goodness st in
  Refine_constrained.refine_state rng st;
  if Ppnpart_check.Check.enabled () then begin
    Ppnpart_check.Check.part_state ~site:(site ^ ".refined") st;
    Ppnpart_check.Check.partition ~site:(site ^ ".refined") g c
      st.Part_state.part
  end;
  tabu_rescue ~site ~workspace g c
    (Part_state.snapshot st, Part_state.goodness st, [ seed_goodness ])

(* The one result builder. The final labels' [Metrics.quality] is the
   answer's certificate, and the reported goodness, feasibility and
   report come from it. A disagreement with the goodness the search
   kept ([search]) is counted and logged. *)
let finish ~t0 g c ?search ?(history = []) ?(cycles = 0) ?(levels = 0) part =
  let q = Metrics.quality g c part in
  let goodness = Metrics.goodness_of_quality c q in
  (match search with
  | Some s when Metrics.compare_goodness goodness s <> 0 ->
    Ppnpart_obs.Counters.incr "gp.certificate_mismatch";
    Log.err (fun m ->
        m "certificate %a disagrees with the search's %a" Metrics.pp_goodness
          goodness Metrics.pp_goodness s)
  | _ -> ());
  let runtime_s = Unix.gettimeofday () -. t0 in
  {
    part;
    feasible = goodness.Metrics.violation = 0;
    goodness;
    report = Metrics.report_of_quality ~runtime_s q;
    quality = q;
    cycles_used = cycles;
    levels;
    runtime_s;
    history = List.rev history;
  }

let exhaustive_best g (c : Types.constraints) =
  let n = Wgraph.n_nodes g in
  (* Canonical labels stay below [min n k], so evaluating under [k = n]
     gives the same goodness as under the full [k] — the extra parts are
     empty and contribute to neither excess — while keeping the
     bandwidth matrices n x n instead of k x k. *)
  let eval_c = { c with Types.k = n } in
  let labels = Array.make n 0 in
  let best = ref (Array.make n 0) in
  let best_gd = ref (Metrics.goodness g eval_c !best) in
  let rec go i used =
    if i = n then begin
      let gd = Metrics.goodness g eval_c labels in
      if Metrics.compare_goodness gd !best_gd < 0 then begin
        best := Array.copy labels;
        best_gd := gd
      end
    end
    else
      for l = 0 to min used (c.Types.k - 1) do
        labels.(i) <- l;
        go (i + 1) (max used (l + 1))
      done
  in
  go 0 0;
  (!best, !best_gd)

let run_partition ~(config : Config.t) g (c : Types.constraints) =
  Config.validate config;
  (* No width-dependent attribute may appear here: the exported trace is
     documented to be identical at every pool width. *)
  Ppnpart_obs.Span.phase_result
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int (Wgraph.n_nodes g));
        ("edges", Ppnpart_obs.Obs.Int (Wgraph.n_edges g));
        ("k", Ppnpart_obs.Obs.Int c.Types.k);
        ("seed", Ppnpart_obs.Obs.Int config.Config.seed) ])
    ~result:(fun r ->
      [ ("feasible", Ppnpart_obs.Obs.Bool r.feasible);
        ("cycles", Ppnpart_obs.Obs.Int r.cycles_used);
        ("violation", Ppnpart_obs.Obs.Int r.goodness.Metrics.violation);
        ("cut", Ppnpart_obs.Obs.Int r.goodness.Metrics.cut_value) ])
    "gp.partition"
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let rng = Random.State.make [| config.Config.seed; 0x6770 |] in
  let n = Wgraph.n_nodes g in
  let finish = finish ~t0 g c in
  (* Degenerate dispatch, shared by every mode so that
     [--mode stream|hybrid|multilevel] agree by construction on the
     cases where heuristics have nothing to decide (the n <= k class is
     the PR 3 false-infeasibility fix; stream/hybrid used to bypass it
     and hand these inputs to the streaming objective, which can and
     did answer differently):

     - n = 0: the empty labelling;
     - k = 1: one part is the only labelling — running a pipeline can
       only burn cycles to reach it;
     - n <= k <= 10: exhaustive enumeration (see [exhaustive_best]);
     - larger n <= k, and zero-edge graphs (every labelling has cut 0
       and the objective is load placement only): the multilevel
       pipeline is the canonical path regardless of the requested
       mode. *)
  if n = 0 then finish [||]
  else if c.Types.k = 1 then finish (Array.make n 0)
  else if n <= c.Types.k && n <= exhaustive_limit then
    let part, search = exhaustive_best g c in
    finish ~search part
  else
    let mode =
      if n <= c.Types.k || Wgraph.n_edges g = 0 then Config.Multilevel
      else config.Config.mode
    in
    match mode with
    | Config.Stream | Config.Hybrid ->
        let ws = Workspace.create () in
        let part, stats =
          Stream.partition ~workspace:ws
            ~max_iterations:config.Config.stream_iterations g c
        in
        if Ppnpart_check.Check.enabled () then
          Ppnpart_check.Check.partition ~site:"gp.stream" g c part;
        if mode = Config.Stream then finish ~search:stats.Stream.goodness part
        else
          (* Hybrid: refine and rescue the streamed labels, with no
             coarsening and no V-cycle. The refiner commits only strict
             improvements, so the answer is never worse than the
             streaming seed, whose goodness opens [history]. Pool-free
             and sequential, like the stream itself. *)
          let (part, search, history), _ =
            refine_and_rescue ~site:"gp.hybrid" ~workspace:(Lazy.from_val ws)
              rng
              (Part_state.init ~workspace:ws g c part)
          in
          finish ~search ~history part
    | Config.Multilevel -> begin
    (* A wave is as wide as the pool, which never exceeds the hardware:
       wave cycles beyond the domains that can run them would buy nothing
       and keep whole hierarchies live at once. The fold reproduces the
       sequential schedule, so the wave width never changes results. *)
    let wave_width =
      if n >= parallel_cycle_threshold then Pool.width () else 1
    in
    (* One workspace per concurrent cycle slot. Waves are joined before
       the next wave starts, so slot [w] is only ever touched by one
       domain at a time; slot 0 doubles as the scratch for the initial
       build (sequential at that point). *)
    let workspaces =
      Array.init wave_width (fun _ -> Workspace.create ())
    in
    let hierarchy =
      Coarsen.build ~workspace:workspaces.(0)
        ~target:config.Config.coarsen_target
        ~strategies:config.Config.strategies rng g
    in
    let best = ref (descend config ~workspace:workspaces.(0) rng hierarchy c) in
    let history = ref [ snd !best ] in
    let cycles = ref 0 in
    (* Partial V-cycles until feasible or the iteration budget runs out.
       Cycles are evaluated speculatively in waves of [wave_width];
       results are folded in cycle order and the fold stops at the first
       cycle that leaves the best candidate feasible, so any work past
       that point is discarded and the outcome matches the sequential
       schedule exactly. *)
    let stop = ref ((snd !best).Metrics.violation = 0) in
    (* From here on slot [w] runs cycles [w + 1], [w + 1 + wave_width],
       ...: what it allocates depends on the width, so the slots keep
       their allocation counters out of the trace. *)
    Array.iter (fun ws -> ws.Workspace.quiet <- true) workspaces;
    let next = ref 1 in
    while (not !stop) && !next <= config.Config.max_cycles do
      let wave = min wave_width (config.Config.max_cycles - !next + 1) in
      let first = !next in
      let results, deferred =
        Pool.run_deferred
          (Array.init wave (fun w () ->
               run_cycle config ~workspace:workspaces.(w) c hierarchy
                 (first + w)))
      in
      let consumed = ref 0 in
      Array.iteri
        (fun w (candidate, gd, from_level) ->
          if not !stop then begin
            incr consumed;
            incr cycles;
            Log.debug (fun m ->
                m "cycle %d (from level %d): %a" (first + w) from_level
                  Metrics.pp_goodness gd);
            if Metrics.compare_goodness gd (snd !best) < 0 then
              best := (candidate, gd);
            history := snd !best :: !history;
            if (snd !best).Metrics.violation = 0 then stop := true
          end)
        results;
      (* Cycles past the stopping point never ran in the sequential
         schedule; dropping their trace buffers keeps the merged trace
         identical at every width. *)
      Ppnpart_obs.Obs.commit ~keep:!consumed deferred;
      next := first + wave
    done;
    let (part, search, history), _ =
      tabu_rescue ~site:"gp.multilevel"
        ~workspace:(Lazy.from_val workspaces.(0)) g c
        (fst !best, snd !best, !history)
    in
    finish ~search ~history ~cycles:!cycles
      ~levels:(Coarsen.levels hierarchy) part
  end

(* [config.debug_checks] installs the validators for the call. *)
let checked (config : Config.t) f =
  if config.Config.debug_checks then Ppnpart_check.Check.with_checks f
  else f ()

let partition ?(config = Config.default) g c =
  checked config (fun () -> run_partition ~config g c)

let partition_exn ?config g c =
  let r = partition ?config g c in
  if not r.feasible then
    failwith
      "GP: partitioning with these constraints is either impossible or the \
       tool needs more iterations (increase max_cycles)";
  r

let partition_metis ?config text c =
  let g = Graph_io.of_metis text in
  (g, partition ?config g c)

(* ------------------------------------------------------------------ *)
(* Incremental repartitioning (DESIGN.md §6.7).

   Design-space exploration re-partitions after every small PPN edit.
   Instead of a fresh V-cycle, project the previous labels through the
   edit's node map, let the streaming objective place the holes
   (added/evicted nodes), and run only the boundary-driven refiner —
   the same machinery a V-cycle runs after projecting one un-coarsening
   level, with the edit playing the role of the coarse solution.

   Two gates protect quality: an edit touching more than
   [config.repartition_gate] of the nodes skips straight to the full
   pipeline (the seed would be mostly holes), and an incremental result
   that is still infeasible after refinement + tabu rescue falls back
   to the full pipeline, keeping whichever candidate compares better —
   so the incremental path is never worse than from-scratch on
   feasibility. Every incremental step is sequential and rng-free
   given [config.seed]; the fallback is [run_partition], itself
   bit-identical at every pool width — hence so is [repartition]. *)

type repartition = {
  rp_result : result;
  rp_graph : Wgraph.t;
  rp_node_map : int array;
  rp_incremental : bool;  (** false = the full pipeline produced it *)
  rp_seeded : int;
  rp_edit : Graph_edit.stats;
}

(* The refinement state behind the last incremental answer, kept for
   the next request. It is valid for exactly the graph and labelling it
   answered (checked by physical equality), and its storage is a
   workspace of its own, so nothing else can overwrite it between
   requests. [dropped] names why the last state was let go, for the
   rebuild counter of the request that finds the slot empty. *)
type held = { h_graph : Wgraph.t; h_labels : int array; h_state : Part_state.t }

type resident = {
  mutable held : held option;
  rs_ws : Workspace.t;  (** empty until the first state grows it *)
  mutable dropped : string option;
}

let resident () = { held = None; rs_ws = Workspace.create (); dropped = None }

let forget r =
  r.held <- None;
  r.dropped <- None

let rebuilt reason =
  Ppnpart_obs.Counters.incr "gp.repartition.rebuilt";
  Ppnpart_obs.Counters.incr ("gp.repartition.rebuilt." ^ reason)

let run_repartition ~(config : Config.t) ?workspace ?resident ~prev g c ops =
  Config.validate config;
  if Array.length prev <> Wgraph.n_nodes g then
    invalid_arg "Gp.repartition: previous labelling has wrong length";
  for u = 0 to Array.length prev - 1 do
    let p = prev.(u) in
    if p < 0 || p >= c.Types.k then
      invalid_arg "Gp.repartition: previous label out of range"
  done;
  Ppnpart_obs.Span.phase_result
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int (Wgraph.n_nodes g));
        ("ops", Ppnpart_obs.Obs.Int (List.length ops)) ])
    ~result:(fun r ->
      [ ("incremental", Ppnpart_obs.Obs.Bool r.rp_incremental);
        ("seeded", Ppnpart_obs.Obs.Int r.rp_seeded);
        ("violation",
         Ppnpart_obs.Obs.Int r.rp_result.goodness.Metrics.violation);
        ("cut", Ppnpart_obs.Obs.Int r.rp_result.goodness.Metrics.cut_value)
      ])
    "gp.repartition"
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let g', node_map, edit = Graph_edit.apply g ops in
  let n' = Wgraph.n_nodes g' in
  (* Empty the slot before anything can go wrong: from here on it never
     holds a state this request may have consumed. *)
  let held, dropped =
    match resident with
    | None -> (None, None)
    | Some r ->
      let h = r.held and d = r.dropped in
      forget r;
      (h, d)
  in
  let drop reason =
    Option.iter (fun r -> r.dropped <- Some reason) resident
  in
  let edit_ratio =
    float_of_int edit.Graph_edit.touched /. float_of_int (max 1 n')
  in
  let mk ?(incremental = false) ?(seeded = 0) result =
    Ppnpart_obs.Counters.incr
      (if incremental then "gp.repartition.incremental"
       else "gp.repartition.scratch");
    {
      rp_result = result;
      rp_graph = g';
      rp_node_map = node_map;
      rp_incremental = incremental;
      rp_seeded = seeded;
      rp_edit = edit;
    }
  in
  (* The degenerate classes route through [run_partition]'s canonical
     dispatch — with no boundary to refine there is nothing incremental
     to save. *)
  let degenerate =
    n' = 0 || c.Types.k = 1 || n' <= c.Types.k || Wgraph.n_edges g' = 0
  in
  if degenerate || edit_ratio > config.Config.repartition_gate then begin
    rebuilt "gate";
    mk (run_partition ~config g' c)
  end
  else begin
    let checking = Ppnpart_check.Check.enabled () in
    (* Scratch for hole seeding and the tabu rescue: the caller's, or a
       private one. The state itself lives in the resident's own
       workspace when there is a resident slot to keep it in. *)
    let side_ws =
      lazy (match workspace with Some w -> w | None -> Workspace.create ())
    in
    let id_stable =
      edit.Graph_edit.added_nodes = 0 && edit.Graph_edit.removed_nodes = 0
    in
    let st, seeded =
      match held with
      | Some h
        when id_stable && h.h_graph == g && h.h_labels == prev
             && h.h_state.Part_state.c = c ->
        (* [node_map] is the identity: patch the last answer's state by
           the edit instead of rebuilding it from the labels. *)
        Ppnpart_obs.Counters.incr "gp.repartition.resident";
        ( Part_state.rebase h.h_state g'
            ~touched:edit.Graph_edit.touched_nodes,
          0 )
      | _ ->
        rebuilt
          (if not id_stable then "node_ids"
           else Option.value dropped ~default:"new_state");
        let labels =
          Array.init n' (fun u ->
              let o = node_map.(u) in
              if o >= 0 then prev.(o) else -1)
        in
        let seeded =
          if Array.mem (-1) labels then
            Stream.seed_partial ~workspace:(Lazy.force side_ws) g' c labels
          else 0
        in
        if checking then
          Ppnpart_check.Check.partition ~site:"gp.repartition.seed" g' c
            labels;
        let ws =
          match resident with
          | Some r -> r.rs_ws
          | None -> Lazy.force side_ws
        in
        (Part_state.init ~workspace:ws g' c labels, seeded)
    in
    if checking then
      Ppnpart_check.Check.part_state ~site:"gp.repartition.state" st;
    let rng = Random.State.make [| config.Config.seed; 0x6770; 0x7270 |] in
    let (best_part, best_goodness, history), rescued =
      refine_and_rescue ~site:"gp.repartition" ~workspace:side_ws rng st
    in
    (* Feasibility agreement with the from-scratch oracle: whenever the
       incremental path ends infeasible, the full pipeline gets its say,
       and the better of the two answers — so an instance the pipeline
       can solve is never reported infeasible just because it arrived as
       an edit. *)
    let full =
      if best_goodness.Metrics.violation > 0 then
        Some (run_partition ~config g' c)
      else None
    in
    match full with
    | Some full when Metrics.compare_goodness full.goodness best_goodness < 0
      ->
      drop "fallback";
      mk ~seeded full
    | _ ->
      let result = finish ~t0 g' c ~search:best_goodness ~history best_part in
      if Metrics.compare_goodness result.goodness best_goodness <> 0 then
        drop "certificate"
      else if rescued then drop "fallback"
      else
        Option.iter
          (fun r ->
            r.held <-
              Some { h_graph = g'; h_labels = best_part; h_state = st })
          resident;
      mk ~incremental:true ~seeded result
  end

let repartition ?(config = Config.default) ?workspace ?resident ~prev g c ops
    =
  checked config (fun () ->
      run_repartition ~config ?workspace ?resident ~prev g c ops)
