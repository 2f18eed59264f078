(** Deterministic parallel chunked restreaming (DESIGN.md §6.9).

    Each restream pass of the sequential {!Stream} partitioner is
    split into fixed node-index chunks. Chunks are scored concurrently
    on the resident {!Ppnpart_exec.Team} against the frozen pass-start
    load/bandwidth state (plus each chunk's own earlier decisions),
    then the per-chunk label and load deltas are committed in chunk
    order on the calling domain, with one exact bandwidth-matrix
    rebuild over the moved nodes' edges. Chunk boundaries and commit
    order are functions of node index alone, so the result is
    bit-identical across team widths and restarts — the house
    determinism contract.

    Pass 0 runs through the sequential streamer (an unassigned stream
    gives chunking nothing to freeze), and inputs with
    [n <= chunk_size] fall back to {!Stream.partition} entirely:
    a single chunk's visibility rule degenerates to the sequential
    pass, so the fallback is exactness-preserving. {!Stream} remains
    the differential oracle — tests compare the two paths bit for bit
    at one chunk and bound the frozen-state quality delta at many.

    Observability: the [stream.chunk.partition] phase span,
    [stream.chunk.pass] per-pass spans, and [stream.chunk.passes] /
    [.chunks] / [.moves] / [.commit_edges] counters — all computed
    from width-independent quantities on the calling domain, keeping
    [--deterministic-report] byte-identical across widths. *)

open Ppnpart_graph

val default_chunk : int
(** Default chunk size (4096 nodes). *)

val partition :
  ?workspace:Workspace.t ->
  ?max_iterations:int ->
  ?chunk_size:int ->
  ?team:Ppnpart_exec.Team.t ->
  Wgraph.t ->
  Types.constraints ->
  int array * Stream.stats
(** Chunked-parallel counterpart of {!Stream.partition}: same
    signature shape, same stats record, bit-identical across [team]
    widths (including [None] = inline width 1). Falls back to
    {!Stream.partition} when [n <= chunk_size].
    @raise Invalid_argument if [max_iterations < 1] or
    [chunk_size < 1]. *)
