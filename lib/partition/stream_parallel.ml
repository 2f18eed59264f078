open Ppnpart_graph
module Team = Ppnpart_exec.Team

(* Deterministic parallel chunked restreaming (DESIGN.md §6.9).

   The sequential restreaming pass of {!Stream} visits nodes in index
   order against a continuously-updated (load, bandwidth) state. Here a
   restream pass is split into fixed node-index chunks of [chunk_size];
   every chunk is scored against the *frozen pass-start* state — plus
   the chunk's own earlier decisions — on whichever team member it
   lands on, and the per-chunk label/load deltas are committed in chunk
   order on the calling domain, followed by one exact bandwidth-matrix
   rebuild restricted to the moved nodes' edges.

   Determinism: chunk boundaries are fixed by [chunk_size] and node
   index, every chunk's inputs (pass-start labels, loads, bandwidth)
   are the same regardless of which member scores it, and the commit
   is a pure function of the per-chunk outputs taken in chunk order.
   Team width therefore cannot influence the result — the contract the
   width-determinism tests and the bench gate hard-assert.

   Exactness anchor: a chunk's scoring loop is the sequential [visit]
   verbatim, operating on a private copy of the pass-start state and
   reading labels as "this chunk's fresh decision for already-visited
   chunk nodes, frozen label otherwise". With a single chunk covering
   all nodes that visibility rule degenerates to the sequential pass,
   so [n <= chunk_size] falls back to {!Stream.partition} outright and
   the oracle tests compare the two paths bit for bit. The quality
   cost of frozen-state scoring at real chunk counts is bounded in
   bench ([stream_parallel_*] rows report both cuts side by side).

   Pass 0 is delegated to the sequential streamer: chunking an
   unassigned stream would score every chunk against an empty frozen
   state (all-blind placement), and sharing the code keeps pass-0
   behaviour pinned to the oracle. {!Stream.partition} conveniently
   leaves its exact end-of-pass load/bandwidth state in the workspace
   for the chunked restreams to start from.

   Observability: [stream.chunk.*] spans and counters are emitted on
   the calling domain only, from width-independent quantities, so
   [--deterministic-report] stays byte-identical across widths. *)

let default_chunk = 4096

(* Battaglino parameters, as in {!Stream}. *)
let gamma = 1.5
let ta = 1.7

let excess_over bound v = if v > bound then v - bound else 0

(* Per-member scratch. Allocated per call, outside the workspace:
   sizing it by team width inside [Workspace] would make workspace
   telemetry ([stream.workspace.words], [stream.alloc]) width-dependent
   and break the deterministic report. *)
type scratch = {
  s_load : int array;  (* k *)
  s_bw : int array;  (* k * k *)
  s_conn : int array;  (* k, all-zero between nodes *)
  s_touched : int array;  (* k *)
}

let make_scratch k =
  {
    s_load = Array.make k 0;
    s_bw = Array.make (k * k) 0;
    s_conn = Array.make k 0;
    s_touched = Array.make k 0;
  }

(* Score chunk [lo, hi): the sequential restream visit on a private
   copy of the frozen pass-start state. [cur.(lo, hi)] is blitted into
   [next] first, so a label reads as [next.(v)] for any chunk node —
   this chunk's fresh decision once visited, the frozen label until
   then — and [cur.(v)] outside the chunk (where [next] belongs to
   other chunks' concurrent writers). Raw CSR indexing throughout:
   this loop runs once per node per pass and the closure dispatch of
   [iter_neighbors] is measurable against the sequential baseline. *)
let score_chunk g ~k ~bmax ~rmax ~rscale ~a_i ~bw_w ~load0 ~bw0 ~cur ~next s
    ~lo ~hi =
  Array.blit load0 0 s.s_load 0 k;
  Array.blit bw0 0 s.s_bw 0 (k * k);
  Array.blit cur lo next lo (hi - lo);
  let load = s.s_load
  and bw = s.s_bw
  and conn = s.s_conn
  and touched = s.s_touched in
  let xadj = g.Wgraph.xadj
  and adjncy = g.Wgraph.adjncy
  and adjwgt = g.Wgraph.adjwgt
  and vwgt = g.Wgraph.vwgt in
  (* One scoring closure per chunk, not per node — the sequential
     streamer allocates its [score] per visit, and that minor-heap
     churn is pure loss here where the loop is already the hot path. *)
  let score ~w_u ~ntc q =
    let aff = conn.(q) in
    let disc = ref 0 in
    for i = 0 to ntc - 1 do
      let r = touched.(i) in
      if r <> q then begin
        let cur_bw = bw.((q * k) + r) in
        disc :=
          !disc
          + excess_over bmax (cur_bw + conn.(r))
          - excess_over bmax cur_bw
      end
    done;
    if rmax <> max_int then
      disc :=
        !disc + excess_over rmax (load.(q) + w_u) - excess_over rmax load.(q);
    let ratio = float_of_int (load.(q) + w_u) /. rscale in
    float_of_int aff
    -. (bw_w *. float_of_int !disc)
    -. (a_i *. (ratio ** gamma))
  in
  for u = lo to hi - 1 do
    let w_u = vwgt.(u) in
    let old = cur.(u) in
    let nt = ref 0 in
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let v = adjncy.(i) in
      let q = if v >= lo && v < hi then next.(v) else cur.(v) in
      if q >= 0 then begin
        if conn.(q) = 0 then begin
          touched.(!nt) <- q;
          incr nt
        end;
        conn.(q) <- conn.(q) + adjwgt.(i)
      end
    done;
    load.(old) <- load.(old) - w_u;
    for i = 0 to !nt - 1 do
      let r = touched.(i) in
      if r <> old then begin
        let b = bw.((old * k) + r) - conn.(r) in
        bw.((old * k) + r) <- b;
        bw.((r * k) + old) <- b
      end
    done;
    let ntc = !nt in
    let light = ref 0 in
    for q = 1 to k - 1 do
      if load.(q) < load.(!light) then light := q
    done;
    let best = ref !light and best_s = ref (score ~w_u ~ntc !light) in
    for i = 0 to ntc - 1 do
      let q = touched.(i) in
      if q <> !light then begin
        let s = score ~w_u ~ntc q in
        if s > !best_s || (s = !best_s && q < !best) then begin
          best := q;
          best_s := s
        end
      end
    done;
    let t = !best in
    next.(u) <- t;
    load.(t) <- load.(t) + w_u;
    for i = 0 to !nt - 1 do
      let r = touched.(i) in
      if r <> t then begin
        let b = bw.((t * k) + r) + conn.(r) in
        bw.((t * k) + r) <- b;
        bw.((r * k) + t) <- b
      end;
      conn.(r) <- 0
    done
  done

(* Restream passes [1 .. max_iterations - 1] over [cur] (fully
   assigned), with [load0]/[bw0] holding the exact state of [cur] and
   [next] a caller-supplied length-n double buffer (the other
   workspace label bank — keeping the steady state allocation-free,
   like the sequential streamer). Returns whichever buffer holds the
   final labels, the per-pass move counts (in order) and the
   convergence flag. *)
let restream_passes ?team ~chunk_size ~max_iterations g (c : Types.constraints)
    ~load0 ~bw0 ~next cur =
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  let bmax = c.Types.bmax and rmax = c.Types.rmax in
  let total_vw = Wgraph.total_node_weight g in
  let total_ew = Wgraph.total_edge_weight g in
  let rscale =
    float_of_int
      (max 1 (if rmax = max_int then (total_vw + k - 1) / max 1 k else rmax))
  in
  let a0 =
    sqrt 2.0 *. 2.0 *. float_of_int total_ew /. float_of_int (max 1 n)
  in
  let a0 = if a0 <= 0.0 then sqrt 2.0 else a0 in
  let width = match team with None -> 1 | Some tm -> Team.width tm in
  let scratch = Array.init width (fun _ -> make_scratch k) in
  (* The double buffer must be distinct storage; a caller handing the
     same bank twice would make the visibility rule read its own
     writes. *)
  let next = if next == cur then Array.make n 0 else next in
  let cur = ref cur and next = ref next in
  let n_chunks = (n + chunk_size - 1) / chunk_size in
  let chunks_per_member = (n_chunks + width - 1) / width in
  let moved_acc = ref [] in
  let passes = ref 0 in
  let commit_edges = ref 0 in
  let converged = ref false in
  let it = ref 1 in
  while !it < max_iterations && not !converged do
    let iter = !it in
    let sched = ta ** float_of_int iter in
    let a_i = a0 *. sched in
    let bw_w = a0 *. sched in
    let cur_a = !cur and next_a = !next in
    let moved =
      Ppnpart_obs.Span.with_result
        ~args:(fun () ->
          [ ("iteration", Ppnpart_obs.Obs.Int iter);
            ("chunks", Ppnpart_obs.Obs.Int n_chunks) ])
        ~result:(fun moved -> [ ("moved", Ppnpart_obs.Obs.Int moved) ])
        "stream.chunk.pass"
      @@ fun () ->
      let score_member wi =
        let clo = wi * chunks_per_member in
        let chi = min n_chunks (clo + chunks_per_member) in
        let s = scratch.(wi) in
        for ci = clo to chi - 1 do
          let lo = ci * chunk_size in
          let hi = min n (lo + chunk_size) in
          score_chunk g ~k ~bmax ~rmax ~rscale ~a_i ~bw_w ~load0 ~bw0
            ~cur:cur_a ~next:next_a s ~lo ~hi
        done
      in
      (match team with
      | None -> score_member 0
      | Some tm -> Team.run tm score_member);
      (* Commit, in chunk (= node) order, one fused scan: label/load
         deltas plus an exact bandwidth rebuild over the moved nodes'
         edges. Each affected edge is handled exactly once — at its
         lower moved endpoint when both endpoints moved — so the
         rebuild is order-independent and leaves [bw0] as the exact
         pairwise bandwidth of [next_a]. *)
      let moved = ref 0 in
      let xadj = g.Wgraph.xadj
      and adjncy = g.Wgraph.adjncy
      and adjwgt = g.Wgraph.adjwgt
      and vwgt = g.Wgraph.vwgt in
      for u = 0 to n - 1 do
        let cu = cur_a.(u) and nu = next_a.(u) in
        if nu <> cu then begin
          let w_u = vwgt.(u) in
          load0.(cu) <- load0.(cu) - w_u;
          load0.(nu) <- load0.(nu) + w_u;
          incr moved;
          for i = xadj.(u) to xadj.(u + 1) - 1 do
            let v = adjncy.(i) in
            if next_a.(v) = cur_a.(v) || u < v then begin
              incr commit_edges;
              let w = adjwgt.(i) in
              let cv = cur_a.(v) in
              if cu <> cv then begin
                let b = bw0.((cu * k) + cv) - w in
                bw0.((cu * k) + cv) <- b;
                bw0.((cv * k) + cu) <- b
              end;
              let nv = next_a.(v) in
              if nu <> nv then begin
                let b = bw0.((nu * k) + nv) + w in
                bw0.((nu * k) + nv) <- b;
                bw0.((nv * k) + nu) <- b
              end
            end
          done
        end
      done;
      !moved
    in
    moved_acc := moved :: !moved_acc;
    incr passes;
    cur := next_a;
    next := cur_a;
    if moved = 0 then converged := true;
    incr it
  done;
  if Ppnpart_obs.Obs.recording () then begin
    Ppnpart_obs.Counters.add "stream.chunk.passes" !passes;
    Ppnpart_obs.Counters.add "stream.chunk.chunks" (n_chunks * !passes);
    List.iter
      (fun m -> Ppnpart_obs.Counters.add "stream.chunk.moves" m)
      (List.rev !moved_acc);
    Ppnpart_obs.Counters.add "stream.chunk.commit_edges" !commit_edges
  end;
  (!cur, Array.of_list (List.rev !moved_acc), !converged)

let partition ?workspace ?(max_iterations = Stream.default_iterations)
    ?(chunk_size = default_chunk) ?team g (c : Types.constraints) =
  if max_iterations < 1 then
    invalid_arg "Stream_parallel.partition: max_iterations < 1";
  if chunk_size < 1 then
    invalid_arg "Stream_parallel.partition: chunk_size < 1";
  let n = Wgraph.n_nodes g in
  if n <= chunk_size then
    (* Single chunk == the sequential pass; skip the machinery. *)
    Stream.partition ?workspace ~max_iterations g c
  else begin
    let k = c.Types.k in
    let ws =
      match workspace with Some w -> w | None -> Workspace.create ()
    in
    Ppnpart_obs.Span.phase_result
      ~args:(fun () ->
        [ ("nodes", Ppnpart_obs.Obs.Int n);
          ("edges", Ppnpart_obs.Obs.Int (Wgraph.n_edges g));
          ("k", Ppnpart_obs.Obs.Int k);
          ("chunk_size", Ppnpart_obs.Obs.Int chunk_size);
          ("max_iterations", Ppnpart_obs.Obs.Int max_iterations) ])
      ~result:(fun (_, (st : Stream.stats)) ->
        [ ("iterations", Ppnpart_obs.Obs.Int st.Stream.iterations);
          ("converged", Ppnpart_obs.Obs.Bool st.Stream.converged) ])
      "stream.chunk.partition"
    @@ fun () ->
    let part0, st0 = Stream.partition ~workspace:ws ~max_iterations:1 g c in
    if max_iterations = 1 then (part0, st0)
    else begin
      (* [Stream.partition] left its exact end-of-pass load/bandwidth
         state in the workspace; restream from it. [part0] sits in one
         label bank, so the next acquisition is the other one — a free
         double buffer. *)
      let final, moved_rest, converged =
        restream_passes ?team ~chunk_size ~max_iterations g c
          ~load0:ws.Workspace.st_load ~bw0:ws.Workspace.st_bw
          ~next:(Workspace.part_bank ws ~n) part0
      in
      let moved = Array.append st0.Stream.moved moved_rest in
      ( final,
        {
          Stream.iterations = Array.length moved;
          moved;
          converged;
          state_words = st0.Stream.state_words;
        } )
    end
  end
