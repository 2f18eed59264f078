(* What one benchmark op produces, and the answer check shared by every
   workload. Checking always runs outside the timed region. *)

open Ppnpart_partition
module Check = Ppnpart_check.Check

(* How an op runs. [E2e]: the end-to-end run, the public call(s) only.
   [Plain] and [Traced]: the two halves of the traced run, the same
   calls split into layers, without and with span capture. *)
type mode = E2e | Plain | Traced

(* OCaml runtime counter deltas over an op's layered region. *)
type gc = { minor_words : float; promoted_words : float; major : int }

(* [cut_ratio]: the answer's cut over a fixed reference cut of the same
   graph (see {!check}), so the ratio does not move with how many edges
   a seed's graph has. *)
type quality = { cut_ratio : float; violation : int }

type answer =
  | Failed of string
  | Answered of quality option
      (** a checked answer; [None] for a read-only request *)

type sample = {
  timed_s : float;  (** the end-to-end op time *)
  layered_s : float;
      (** the part the layers split: the same calls as [timed_s], except
          on the daemon, where it is the in-process replay *)
  gc : gc;
  heap_words : int;  (** major heap size right after the op *)
  answer : answer;
}

type workload = {
  round : int;  (** ops per round; runs end on a round boundary *)
  warmup : int;  (** checked ops run during set-up *)
  op : mode -> int -> sample;  (** [op mode i] runs and checks op [i] *)
  extra : int -> (string * float) list;
      (** workload-owned per-layer metrics, given the traced op count *)
  close : unit -> unit;
}

let now = Unix.gettimeofday

(* Major heap size read after the latest {!timed} call. *)
let last_heap_words = ref 0

(* [timed f] is [(f (), seconds, gc deltas)]; the counters are read
   just outside the clock. *)
let timed f =
  let s0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  let mw1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  last_heap_words := s1.Gc.heap_words;
  ( v,
    dt,
    {
      minor_words = mw1 -. mw0;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      major = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

type expect = Feasible | Either

(* Re-check a returned labelling of [g] from scratch: valid labels, and
   the goodness and feasible flag the call returned must be what
   {!Metrics} recomputes. [norm_cut] is the reference cut: on the
   daemon the cut of the planted clustering its bounds come from, on
   the stream workload the cut of k contiguous blocks of node ids, a
   fixed normaliser that no bound is derived from. *)
let check ~expect ~norm_cut g c ~part ~feasible
    ~(goodness : Metrics.goodness) =
  match Check.partition ~site:"perfbench" g c part with
  | exception Check.Violation { field; _ } -> Failed ("invalid labels: " ^ field)
  | () ->
    let q = Metrics.quality g c part in
    let gd = Metrics.goodness_of_quality c q in
    if gd <> goodness then Failed "returned goodness differs from recomputed"
    else if feasible <> (gd.Metrics.violation = 0) then
      Failed "feasible flag disagrees with the violation"
    else if expect = Feasible && not feasible then
      Failed
        (Printf.sprintf "infeasible answer (violation %d) on a feasible instance"
           gd.Metrics.violation)
    else
      Answered
        (Some
           {
             cut_ratio =
               float_of_int q.Metrics.cut /. float_of_int (max 1 norm_cut);
             violation = gd.Metrics.violation;
           })

(* [traced_timed mode acc f]: {!timed} around [f], under a span capture
   when [mode] is [Traced]. The capture is folded into [acc] after the
   clock stops, so the traced time carries the cost of recording the
   spans but not of folding them. *)
let traced_timed mode acc f =
  Layers.recording := mode = Traced;
  let (v, cap), dt, gc =
    timed (fun () ->
        match mode with
        | Traced ->
          let v, cap = Ppnpart_obs.Obs.with_capture f in
          (v, Some cap)
        | E2e | Plain -> (f (), None))
  in
  Layers.recording := false;
  Option.iter (Layers.add acc) cap;
  (v, dt, gc)
