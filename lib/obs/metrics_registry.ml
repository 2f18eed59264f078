(* The registry's metric table: counters, gauges, log-bucketed
   histograms.

   [Obs] owns the shards' placement (root, task and worker shards) and
   the fold order; this module only knows one table. Folding is
   deterministic given the order: counters and histogram buckets are
   int adds, each histogram's float sum takes one add per fold, and
   gauges are last-write-wins. *)

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Hist of Histogram.t

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 32

let find_counter shard name =
  match Hashtbl.find_opt shard name with
  | Some (Counter r) -> Some r
  | Some _ -> None (* name clash across kinds: drop rather than raise *)
  | None ->
    let r = ref 0 in
    Hashtbl.add shard name (Counter r);
    Some r

let find_gauge shard name =
  match Hashtbl.find_opt shard name with
  | Some (Gauge r) -> Some r
  | Some _ -> None
  | None ->
    let r = ref 0. in
    Hashtbl.add shard name (Gauge r);
    Some r

let find_hist shard name =
  match Hashtbl.find_opt shard name with
  | Some (Hist h) -> Some h
  | Some _ -> None
  | None ->
    let h = Histogram.create () in
    Hashtbl.add shard name (Hist h);
    Some h

let counter_add shard name delta =
  match find_counter shard name with Some r -> r := !r + delta | None -> ()

let gauge_set shard name v =
  match find_gauge shard name with Some r -> r := v | None -> ()

let observe shard name v =
  match find_hist shard name with
  | Some h -> Histogram.observe h v
  | None -> ()

(* Each name occurs at most once per shard, so iteration order within a
   shard is irrelevant; the order of the [fold_into] calls (fixed by the
   caller) is what pins down float sums and gauge overwrites. *)
let fold_into dst (src : t) =
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter r -> counter_add dst name !r
      | Gauge r -> gauge_set dst name !r
      | Hist h -> (
        match find_hist dst name with
        | Some d -> Histogram.merge_into d h
        | None -> ()))
    src

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Histogram.snapshot) list;
}

let empty_snapshot = { counters = []; gauges = []; histograms = [] }

let snapshot (shard : t) =
  let cs = ref [] and gs = ref [] and hs = ref [] in
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter r -> cs := (name, !r) :: !cs
      | Gauge r -> gs := (name, !r) :: !gs
      | Hist h -> hs := (name, Histogram.snapshot h) :: !hs)
    shard;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !cs;
    gauges = List.sort by_name !gs;
    histograms = List.sort by_name !hs;
  }
