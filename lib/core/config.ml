type mode = Multilevel | Stream | Hybrid

let mode_name = function
  | Multilevel -> "multilevel"
  | Stream -> "stream"
  | Hybrid -> "hybrid"

type t = {
  coarsen_target : int;
  n_initial_seeds : int;
  max_cycles : int;
  strategies : Ppnpart_partition.Matching.strategy list;
  tabu_iterations : int;
  seed : int;
  debug_checks : bool;
  mode : mode;
  stream_iterations : int;
  repartition_gate : float;
}

let default =
  {
    coarsen_target = 100;
    n_initial_seeds = 10;
    max_cycles = 20;
    strategies = Ppnpart_partition.Matching.all_strategies;
    tabu_iterations = 0;
    seed = 0;
    debug_checks = Ppnpart_check.Check.env_enabled ();
    mode = Multilevel;
    stream_iterations = Ppnpart_partition.Stream.default_iterations;
    repartition_gate = 0.25;
  }

let validate t =
  if t.coarsen_target < 1 then invalid_arg "Config: coarsen_target < 1";
  if t.n_initial_seeds < 1 then invalid_arg "Config: n_initial_seeds < 1";
  if t.max_cycles < 0 then invalid_arg "Config: max_cycles < 0";
  if t.tabu_iterations < 0 then invalid_arg "Config: tabu_iterations < 0";
  if t.stream_iterations < 1 then invalid_arg "Config: stream_iterations < 1";
  (* Negated comparison so NaN is rejected too. *)
  if not (t.repartition_gate >= 0.0) then
    invalid_arg "Config: repartition_gate < 0";
  if t.strategies = [] then invalid_arg "Config: no matching strategies"
