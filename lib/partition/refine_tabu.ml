open Ppnpart_graph

let refine ?iterations ?workspace g
    (c : Types.constraints) part0 =
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  Ppnpart_obs.Span.phase_result
    ~args:(fun () ->
      [ ("nodes", Ppnpart_obs.Obs.Int n); ("k", Ppnpart_obs.Obs.Int k) ])
    ~result:(fun (_, (gd : Metrics.goodness)) ->
      [ ("violation", Ppnpart_obs.Obs.Int gd.violation);
        ("cut", Ppnpart_obs.Obs.Int gd.cut_value) ])
    "refine.tabu"
  @@ fun () ->
  Types.check_partition ~n ~k part0;
  let iterations = Option.value iterations ~default:(4 * n) in
  let tenure = 7 + (n / 16) in
  let stall_limit = 2 * n in
  let st = Part_state.init ?workspace g c part0 in
  (* The state's workspace (passed in or private) also carries the
     per-call scratch; the expiry array is dirty across calls and must be
     reset. *)
  let ws = st.Part_state.ws in
  let conn = ws.Workspace.rf_conn in
  let tabu_until = ws.Workspace.rf_tabu in
  Array.fill tabu_until 0 n 0;
  let best_part = ref (Part_state.snapshot st) in
  let best = ref (Part_state.goodness st) in
  let stall = ref 0 in
  let step = ref 0 in
  let improvements = ref 0 in
  let continue = ref (n > 1 && k > 1) in
  while !continue && !step < iterations && !stall < stall_limit do
    incr step;
    (* Globally best move; tabu nodes are admitted only when the move
       beats the best goodness seen so far (aspiration criterion). *)
    let admit u v cut' =
      tabu_until.(u) <= !step
      || Metrics.compare_goodness
           { Metrics.violation = v; cut_value = cut' }
           !best
         < 0
    in
    match Part_state.best_global_move ~admit st conn with
    | None -> continue := false
    | Some (u, t) ->
      Part_state.connectivity st conn u;
      Part_state.apply_move st u t conn;
      tabu_until.(u) <- !step + tenure;
      let now = Part_state.goodness st in
      if Metrics.compare_goodness now !best < 0 then begin
        best := now;
        best_part := Part_state.snapshot st;
        improvements := !improvements + 1;
        stall := 0
      end
      else incr stall
  done;
  Ppnpart_obs.Counters.add "tabu.steps" !step;
  Ppnpart_obs.Counters.add "tabu.improvements" !improvements;
  Debug_hooks.validate ~site:"refine.tabu" st;
  (!best_part, !best)
