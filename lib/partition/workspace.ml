(* Reusable scratch memory for the coarsening kernels.

   Coarsening runs the same O(m) passes at every level of every V-cycle;
   without a workspace each pass would re-allocate its marker tables and
   edge buffers. A workspace owns them once, grows them geometrically to
   the largest graph it has seen, and hands them back untouched-size to
   every smaller level — the steady state of a V-cycle allocates nothing
   but the coarse graph itself.

   Concurrency contract: a workspace must not be shared by concurrent
   [Coarsen.contract] calls, but the per-strategy edge buffers ([he],
   [km]) are disjoint arrays, so the matching strategies of one
   [Matching.best_of] race may run concurrently against a single
   workspace (each strategy only ever touches its own buffer set). *)

type edge_bufs = {
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable e_wgt : int array;
  mutable e_key : int array;
  mutable e_perm : int array;
}

type t = {
  mutable mark : int array;
  mutable pos_tbl : int array;
  mutable gen : int;
  mutable cxadj : int array;
  mutable cadj : int array;
  mutable cwgt : int array;
  he : edge_bufs;
  km : edge_bufs;
  (* Part_state backing store (boundary-driven refinement). The partition
     label array ping-pongs between two exact-length banks so that
     projecting a coarse state into a fine one can read the coarse labels
     while writing the fine ones; everything else is capacity-backed. *)
  ps_banks : int array array;
  mutable ps_bank : int;
  mutable ps_bw : int array array;
  mutable ps_load : int array;
  mutable ps_members : int array;
  mutable pl_head : int array;
  mutable ps_conn : int array;
  mutable ps_ed : int array;
  mutable ps_active : int array;
  mutable ps_apos : int array;
  mutable pl_next : int array;
  mutable pl_prev : int array;
  (* Per-call refinement scratch. *)
  mutable rf_order : int array;
  mutable rf_lock : int array;
  mutable rf_epoch : int;
  mutable rf_seed : int array;
  mutable rf_nz : int array;
  mutable rf_moves_u : int array;
  mutable rf_moves_from : int array;
  mutable rf_conn : int array;
  mutable rf_tabu : int array;
  mutable rf_bucket : Bucket.t option;
  (* Streaming partitioner state (Stream): per-part loads, the flat k x k
     pairwise bandwidth matrix, and the per-node connectivity scratch
     (values + touched-part list, reset in O(degree) per node). Together
     with one partition label bank this is the *entire* live state of a
     streaming run — O(n + k + k^2) words regardless of edge count. *)
  mutable st_load : int array;
  mutable st_bw : int array;
  mutable st_conn : int array;
  mutable st_touched : int array;
  mutable quiet : bool;
}

let empty_bufs () =
  { e_src = [||]; e_dst = [||]; e_wgt = [||]; e_key = [||]; e_perm = [||] }

let create () =
  {
    mark = [||];
    pos_tbl = [||];
    gen = 0;
    cxadj = [||];
    cadj = [||];
    cwgt = [||];
    he = empty_bufs ();
    km = empty_bufs ();
    ps_banks = [| [||]; [||] |];
    ps_bank = 0;
    ps_bw = [||];
    ps_load = [||];
    ps_members = [||];
    pl_head = [||];
    ps_conn = [||];
    ps_ed = [||];
    ps_active = [||];
    ps_apos = [||];
    pl_next = [||];
    pl_prev = [||];
    rf_order = [||];
    rf_lock = [||];
    rf_epoch = 0;
    rf_seed = [||];
    rf_nz = [||];
    rf_moves_u = [||];
    rf_moves_from = [||];
    rf_conn = [||];
    rf_tabu = [||];
    rf_bucket = None;
    st_load = [||];
    st_bw = [||];
    st_conn = [||];
    st_touched = [||];
    quiet = false;
  }

(* Geometric growth, so a descending level sequence (the common case)
   allocates once at the top and never again. Counters record the words
   the workspace did allocate ([coarsen.alloc]) and the ensure calls it
   served from existing capacity ([workspace.reuse]). The growth
   accumulator is local to each ensure call: the per-strategy buffer
   sets may be ensured concurrently (see the contract above), so no
   mutable state is shared between them. *)
let grow grown cur needed =
  if Array.length cur >= needed then cur
  else begin
    let cap = max needed (2 * Array.length cur) in
    grown := !grown + cap;
    Array.make cap 0
  end

let finish_ensure ?(counter = "coarsen.alloc") t grown =
  if Ppnpart_obs.Obs.recording () && not t.quiet then
    if !grown > 0 then Ppnpart_obs.Counters.add counter !grown
    else Ppnpart_obs.Counters.incr "workspace.reuse"

let ensure_contract t ~coarse_nodes ~half_edges =
  let grown = ref 0 in
  t.mark <- grow grown t.mark coarse_nodes;
  t.pos_tbl <- grow grown t.pos_tbl coarse_nodes;
  t.cxadj <- grow grown t.cxadj (coarse_nodes + 1);
  t.cadj <- grow grown t.cadj half_edges;
  t.cwgt <- grow grown t.cwgt half_edges;
  finish_ensure t grown

let ensure_edges t bufs ~m ~perm =
  let grown = ref 0 in
  bufs.e_src <- grow grown bufs.e_src m;
  bufs.e_dst <- grow grown bufs.e_dst m;
  bufs.e_wgt <- grow grown bufs.e_wgt m;
  bufs.e_key <- grow grown bufs.e_key m;
  if perm then bufs.e_perm <- grow grown bufs.e_perm m;
  finish_ensure t grown

(* A fresh generation for one marker scan: marks from earlier scans
   become stale without clearing the arrays. Generation 0 is reserved as
   "never marked" so freshly grown (zeroed) arrays are valid. *)
let next_gen t =
  t.gen <- t.gen + 1;
  t.gen

let ensure_state t ~n ~k =
  let grown = ref 0 in
  t.ps_load <- grow grown t.ps_load k;
  t.ps_members <- grow grown t.ps_members k;
  t.pl_head <- grow grown t.pl_head k;
  t.rf_conn <- grow grown t.rf_conn k;
  t.rf_nz <- grow grown t.rf_nz k;
  t.ps_conn <- grow grown t.ps_conn (n * k);
  t.ps_ed <- grow grown t.ps_ed n;
  t.ps_active <- grow grown t.ps_active n;
  t.ps_apos <- grow grown t.ps_apos n;
  t.pl_next <- grow grown t.pl_next n;
  t.pl_prev <- grow grown t.pl_prev n;
  t.rf_order <- grow grown t.rf_order n;
  t.rf_moves_u <- grow grown t.rf_moves_u n;
  t.rf_moves_from <- grow grown t.rf_moves_from n;
  t.rf_tabu <- grow grown t.rf_tabu n;
  t.rf_lock <- grow grown t.rf_lock n;
  t.rf_seed <- grow grown t.rf_seed n;
  if Array.length t.ps_bw < k then begin
    let cap = max k (2 * Array.length t.ps_bw) in
    grown := !grown + (cap * cap);
    t.ps_bw <- Array.make_matrix cap cap 0
  end;
  finish_ensure ~counter:"refine.alloc" t grown

let ensure_stream t ~k =
  let grown = ref 0 in
  t.st_load <- grow grown t.st_load k;
  t.st_bw <- grow grown t.st_bw (k * k);
  t.st_conn <- grow grown t.st_conn k;
  t.st_touched <- grow grown t.st_touched (k + 1);
  finish_ensure ~counter:"stream.alloc" t grown

(* The label bank alternates on every acquisition, so two consecutively
   initialized states never share their partition array — the invariant
   [Part_state.init_projected] relies on to read coarse labels while
   writing fine ones. Banks are exact-length (unlike the capacity-backed
   scratch) because the [part] array is part of the public [Part_state]
   record and its length is meaningful to every consumer. *)
let part_bank t ~n =
  t.ps_bank <- 1 - t.ps_bank;
  let b = t.ps_banks.(t.ps_bank) in
  if Array.length b = n then b
  else begin
    let b = Array.make n 0 in
    if Ppnpart_obs.Obs.recording () && not t.quiet then
      Ppnpart_obs.Counters.add "refine.alloc" n;
    t.ps_banks.(t.ps_bank) <- b;
    b
  end

let bucket t ~n ~max_gain =
  match t.rf_bucket with
  | Some b when Bucket.fits b ~n ~max_gain ->
    Bucket.clear b;
    b
  | _ ->
    let b = Bucket.create ~n ~max_gain in
    t.rf_bucket <- Some b;
    b

let words t =
  Array.length t.mark + Array.length t.pos_tbl + Array.length t.cxadj
  + Array.length t.cadj + Array.length t.cwgt
  + List.fold_left
      (fun acc b ->
        acc + Array.length b.e_src + Array.length b.e_dst
        + Array.length b.e_wgt + Array.length b.e_key
        + Array.length b.e_perm)
      0
      [ t.he; t.km ]
  + Array.length t.ps_banks.(0)
  + Array.length t.ps_banks.(1)
  + (Array.length t.ps_bw * Array.length t.ps_bw)
  + Array.length t.ps_load + Array.length t.ps_members
  + Array.length t.pl_head + Array.length t.ps_conn + Array.length t.ps_ed
  + Array.length t.ps_active + Array.length t.ps_apos
  + Array.length t.pl_next + Array.length t.pl_prev
  + Array.length t.rf_order + Array.length t.rf_lock
  + Array.length t.rf_seed + Array.length t.rf_nz
  + Array.length t.rf_moves_u + Array.length t.rf_moves_from
  + Array.length t.rf_conn + Array.length t.rf_tabu
  + Array.length t.st_load + Array.length t.st_bw + Array.length t.st_conn
  + Array.length t.st_touched
