(* The end-to-end benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--ops N] [--trace-out FILE]

   Runs one workload in process against the public library API, on one
   domain (the daemon workload adds its one worker domain), from inputs
   generated from the seed. Set-up runs five times, each on another
   input set generated from the seed, and its median is [setup_s];
   then ops run in whole rounds until [--seconds] have passed ([--ops
   N] runs exactly N ops instead, rounded up to whole rounds). Every
   answer is checked outside the timed region.

   [--trace 0] prints the end-to-end metrics. [--trace 1] prints the
   per-layer metrics: rounds alternate between plain and span-captured
   ops, layers come from the captures, runtime counters and the tracing
   overhead from the comparison. The last line of standard output is
   the result object; the line before it records the host. *)

open Ppnpart_graph
open Ppnpart_partition
module Gp = Ppnpart_core.Gp
module Config = Ppnpart_core.Config
module Rand_graph = Ppnpart_workloads.Rand_graph

(* ---- the in-process workloads ---- *)

(* [norm_cut]: the fixed number an answer's cut is divided by, the cut
   of k contiguous blocks of node ids. *)
type instance = {
  g : Wgraph.t;
  c : Types.constraints;
  text : string;
  norm_cut : int;
}

(* k contiguous blocks of node ids. *)
let id_blocks g ~k =
  let n = Wgraph.n_nodes g in
  Array.init n (fun u -> u * k / n)

(* R-MAT scale 13 (8,192 nodes, 32,768 edges), k = 16. *)
let stream_pool ~seed ~sub =
  Array.init 4 (fun i ->
      let rng = Random.State.make [| seed; sub; 0x524d; i |] in
      let g =
        Rand_graph.rmat ~vw_range:(1, 8) ~ew_range:(1, 9) rng ~scale:13
          ~m:32_768
      in
      let k = 16 in
      let c =
        Types.constraints ~k
          ~rmax:((Wgraph.total_node_weight g / k * 4 / 3) + 1)
          ~bmax:((Wgraph.total_edge_weight g / (2 * k)) + 1)
      in
      {
        g;
        c;
        text = Graph_io.to_metis g;
        norm_cut = Metrics.cut g (id_blocks g ~k);
      })

let parsed_bytes = ref 0

(* One op is one partition of the next pool instance from its METIS
   text, split into [of_metis] + [Gp.partition] outside the end-to-end
   run, which [gp.mli] documents as equivalent. *)
let in_process ~config ~expect pool acc =
  let op mode i =
    let inst = pool.(i mod Array.length pool) in
    let r, dt, gc =
      Op.traced_timed mode acc (fun () ->
          match mode with
          | Op.E2e -> snd (Gp.partition_metis ~config inst.text inst.c)
          | Op.Plain | Op.Traced ->
            let g =
              Layers.with_ "Graph_io.of_metis" (fun () ->
                  Graph_io.of_metis inst.text)
            in
            Layers.with_ "Gp.partition" (fun () -> Gp.partition ~config g inst.c))
    in
    if mode = Op.Traced then
      parsed_bytes := !parsed_bytes + String.length inst.text;
    let answer =
      Op.check ~expect ~norm_cut:inst.norm_cut inst.g inst.c
        ~part:r.Gp.part ~feasible:r.Gp.feasible ~goodness:r.Gp.goodness
    in
    { Op.timed_s = dt; layered_s = dt; gc; heap_words = !Op.last_heap_words;
      answer }
  in
  { Op.round = Array.length pool; warmup = 1; op; extra = (fun _ -> []);
    close = ignore }

let daemon ~seed ~sub ~traced acc =
  let t = Dse.setup ~seed ~sub ~replay:traced in
  {
    Op.round = Array.length t.Dse.rounds;
    warmup = Array.length t.Dse.rounds;
    op = Dse.op t acc;
    extra = Dse.extra t acc;
    close = (fun () -> Dse.close t);
  }

let workloads = [ "stream-rmat-8k"; "daemon-dse-10k" ]

(* [sub] picks one of the seed's input sets; each set-up has its own. *)
let build name ~seed ~sub ~traced acc =
  let config = Config.default in
  match name with
  | "stream-rmat-8k" ->
    in_process
      ~config:{ config with Config.mode = Config.Stream }
      ~expect:Op.Either (stream_pool ~seed ~sub) acc
  | "daemon-dse-10k" -> daemon ~seed ~sub ~traced acc
  | _ -> invalid_arg name

(* ---- statistics ---- *)

let sorted l = List.sort compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sum l = List.fold_left ( +. ) 0. l
let mean l = if l = [] then 0. else sum l /. float_of_int (List.length l)
let ratio a b = if b = 0. then 0. else a /. b

(* ---- metrics ---- *)

let end_to_end =
  [ ("setup_s", "s"); ("latency_p50_ms", "ms"); ("latency_p90_ms", "ms");
    ("ops_per_s", "1/s"); ("peak_heap_mb", "MiB"); ("cut_ratio", "ratio") ]

let per_layer =
  [ ("graph_io.parse_ms", "ms"); ("graph_io.parse_mb_per_s", "MB/s");
    ("graph_io.upload_ms", "ms"); ("coarsen.ms", "ms");
    ("coarsen.levels", "count"); ("initial.ms", "ms"); ("refine.ms", "ms");
    ("refine.exact_pass_ms", "ms"); ("refine.fm_moves", "count");
    ("refine.fm_useful_ratio", "ratio"); ("gp.cycles", "count");
    ("gp.cycle_ms", "ms"); ("gp.self_ms", "ms"); ("stream.ms", "ms");
    ("stream.passes", "count"); ("stream.moves", "count");
    ("graph_edit.apply_ms", "ms"); ("repartition.ms", "ms");
    ("repartition.incremental_ratio", "ratio"); ("server.parse_ms", "ms");
    ("server.handle_ms", "ms"); ("server.transport_ms", "ms");
    ("server.response_kb", "KiB"); ("gc.minor_mwords_per_op", "Mwords");
    ("gc.major_per_op", "count"); ("gc.promoted_mwords_per_op", "Mwords");
    ("quality.violation_mean", "permille"); ("unattributed_ms", "ms");
    ("obs.trace_overhead_pct", "%") ]

let qualities samples =
  List.filter_map
    (fun (_, s) ->
      match s.Op.answer with Op.Answered q -> q | Op.Failed _ -> None)
    samples

let end_to_end_values ~setup_s samples =
  let lat = List.map (fun (_, s) -> s.Op.timed_s) samples in
  let q = qualities samples in
  let top = List.fold_left (fun m (_, s) -> max m s.Op.heap_words) 0 samples in
  [ ("setup_s", setup_s);
    ("latency_p50_ms", median lat *. 1e3);
    ("latency_p90_ms", percentile 0.9 lat *. 1e3);
    ("ops_per_s", ratio (float_of_int (List.length lat)) (sum lat));
    ("peak_heap_mb",
     float_of_int (top * (Sys.word_size / 8)) /. float_of_int (1 lsl 20));
    ("cut_ratio", mean (List.map (fun q -> q.Op.cut_ratio) q)) ]

let per_layer_values (w : Op.workload) acc samples =
  let module L = Layers in
  let of_mode m = List.filter (fun (m', _) -> m' = m) samples in
  let traced = of_mode Op.Traced and plain = of_mode Op.Plain in
  let t = List.length traced in
  let per_op x = x /. float_of_int (max 1 t) in
  let count name = float_of_int (L.counter acc name) in
  let applied = count "fm.moves.applied"
  and rolled = count "fm.moves.rolled_back" in
  let layered l = List.map (fun (_, s) -> s.Op.layered_s) l in
  let gc f = mean (List.map (fun (_, s) -> f s.Op.gc) plain) in
  let parse_ms = L.layer_ms acc "graph_io" in
  let incr = count "gp.repartition.incremental"
  and scratch = count "gp.repartition.scratch" in
  let plain_p50 = median (layered plain) in
  [ ("graph_io.parse_ms", per_op parse_ms);
    ("graph_io.parse_mb_per_s",
     ratio (float_of_int !parsed_bytes /. 1e6) (parse_ms /. 1e3));
    ("coarsen.ms", per_op (L.layer_ms acc "coarsen"));
    ("coarsen.levels", per_op (float_of_int (L.calls acc "coarsen.level")));
    ("initial.ms", per_op (L.layer_ms acc "initial"));
    ("refine.ms", per_op (L.layer_ms acc "refine"));
    ("refine.exact_pass_ms", per_op (L.self_ms acc "refine.exact_pass"));
    ("refine.fm_moves", per_op (applied +. rolled));
    ("refine.fm_useful_ratio", ratio applied (applied +. rolled));
    ("gp.cycles", per_op (count "gp.cycles"));
    ("gp.cycle_ms", per_op (L.total_ms acc "gp.cycle"));
    ("gp.self_ms", per_op (L.layer_ms acc "gp"));
    ("stream.ms", per_op (L.layer_ms acc "stream"));
    ("stream.passes",
     per_op (count "stream.iterations" +. count "stream.chunk.passes"));
    ("stream.moves", per_op (count "stream.moves" +. count "stream.chunk.moves"));
    ("repartition.ms", per_op (L.total_ms acc "gp.repartition"));
    ("repartition.incremental_ratio", ratio incr (incr +. scratch));
    ("server.parse_ms", per_op (L.total_ms acc "Protocol.parse"));
    ("server.handle_ms", per_op (L.total_ms acc "Service.handle"));
    ("gc.minor_mwords_per_op", gc (fun g -> g.Op.minor_words) /. 1e6);
    ("gc.major_per_op", gc (fun g -> float_of_int g.Op.major));
    ("gc.promoted_mwords_per_op", gc (fun g -> g.Op.promoted_words) /. 1e6);
    ("quality.violation_mean",
     mean (List.map (fun q -> float_of_int q.Op.violation) (qualities samples)));
    ("unattributed_ms",
     per_op ((sum (layered traced) *. 1e3) -. L.attributed_ms acc));
    ("obs.trace_overhead_pct",
     ratio (median (layered traced) -. plain_p50) plain_p50 *. 100.) ]
  @ w.Op.extra t

(* ---- output ---- *)

(* All the digits, as JSON (which has no NaN or infinity). *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed table values =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name values) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      table
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " metrics)

let print_host ~workload ~seed ~seconds ~trace =
  let g = Gc.get () in
  Printf.printf
    "{\"host\": {\"nproc\": %d, \"ocaml\": %S, \"ocamlrunparam\": %S, \
     \"gc\": {\"minor_heap_words\": %d, \"space_overhead\": %d, \
     \"major_heap_increment\": %d}, \"workload\": %S, \"seed\": %d, \
     \"seconds\": %g, \"trace\": %b}}\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.major_heap_increment workload
    seed seconds trace

(* ---- the run ---- *)

let setups = 5

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 \
     [--ops N] [--trace-out FILE]";
  prerr_endline ("workloads: " ^ String.concat ", " workloads);
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref false and ops = ref None and trace_out = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--ops" :: v :: rest -> ops := Some (int_of_string v); parse rest
    | "--trace-out" :: v :: rest -> trace_out := Some v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  let traced = !trace in
  let acc = Layers.create () in
  (* Set-up, [setups] times, each on its own input set from the seed:
     inputs, daemon, first partition and one checked warm-up (a whole
     round for the daemon). The last one stays for the run. *)
  let next = ref 0 in
  let setup sub =
    let t0 = Op.now () in
    let w = build !workload ~seed:!seed ~sub ~traced acc in
    let mode = if traced then Op.Plain else Op.E2e in
    for i = 0 to w.Op.warmup - 1 do
      match (w.Op.op mode i).Op.answer with
      | Op.Failed why -> failwith ("warm-up op failed: " ^ why)
      | Op.Answered _ -> ()
    done;
    next := w.Op.warmup;
    (* Leave set-up garbage behind, so the heap the ops grow is their
       own. *)
    Gc.full_major ();
    Gc.full_major ();
    (w, Op.now () -. t0)
  in
  (* Only the last set-up stays reachable: an earlier one's inputs would
     otherwise sit in the heap the ops run on, and in [peak_heap_mb]. *)
  let last = ref None in
  let setup_times =
    List.init setups (fun i ->
        Option.iter (fun (w : Op.workload) -> w.close ()) !last;
        last := None;
        Gc.full_major ();
        let w, s = setup i in
        last := Some w;
        s)
  in
  let w = Option.get !last in
  let setup_s = median setup_times in
  (* Whole rounds until the time (or op count) is spent; the traced run
     alternates plain and captured rounds and runs at least one of
     each. *)
  let t_start = Op.now () in
  let samples = ref [] and rounds = ref 0 and done_ops = ref 0 in
  let more () =
    (traced && !rounds < 2)
    ||
    match !ops with
    | Some n -> !done_ops < n
    | None -> Op.now () -. t_start < !seconds
  in
  let failures = ref [] in
  while more () do
    let mode =
      if not traced then Op.E2e
      else if !rounds mod 2 = 1 then Op.Traced
      else Op.Plain
    in
    for _ = 1 to w.Op.round do
      Layers.current_op := !next;
      let s =
        try w.Op.op mode !next
        with e ->
          {
            Op.timed_s = 0.;
            layered_s = 0.;
            heap_words = 0;
            gc = { Op.minor_words = 0.; promoted_words = 0.; major = 0 };
            answer = Op.Failed ("exception: " ^ Printexc.to_string e);
          }
      in
      (match s.Op.answer with
       | Op.Failed why -> failures := (!next, why) :: !failures
       | Op.Answered _ -> ());
      samples := (mode, s) :: !samples;
      incr next;
      incr done_ops
    done;
    incr rounds
  done;
  w.Op.close ();
  let samples = List.rev !samples in
  let failed = List.length !failures in
  List.iteri
    (fun i (op, why) -> if i < 5 then Printf.eprintf "op %d failed: %s\n" op why)
    (List.rev !failures);
  Option.iter Layers.write_jsonl !trace_out;
  print_host ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced;
  let attempted = List.length samples in
  let correct = failed = 0 in
  if traced then
    print_result ~correct ~attempted ~failed per_layer
      (per_layer_values w acc samples)
  else
    print_result ~correct ~attempted ~failed end_to_end
      (end_to_end_values ~setup_s samples)
