(** Serialization of weighted graphs.

    Three formats are supported:

    - the METIS [.graph] format (the format the paper's comparator, METIS
      5.1.0, consumes), with the [fmt] header field handling node and edge
      weights;
    - a dense adjacency-matrix text format, mirroring how the paper feeds
      graphs ("represented as incidence matrices") to MATLAB;
    - Graphviz DOT output, used to regenerate the paper's Figures 2–13
      (node radius proportional to weight, partitions as colored clusters). *)

val to_metis : Wgraph.t -> string
(** METIS [.graph] text: header [n m 011], then one line per node with its
    weight followed by [neighbor weight] pairs, 1-indexed. *)

val of_metis : string -> Wgraph.t
(** Parses the output of {!to_metis}; also accepts fmt codes [0], [1], [10],
    [11], [100], [110], [111] (vertex-size field is parsed and ignored).
    Comment lines starting with [%] are skipped. One {!Rows.feed} of the
    whole text followed by {!Rows.finish}.
    @raise Failure on malformed input or asymmetric weights — and {e
    only} [Failure]: checks the underlying constructors signal with
    [Invalid_argument] (negative node or edge weights, say) are
    re-raised as [Failure] too, so parsing untrusted text needs exactly
    one handler. *)

module Rows : sig
  (** The METIS [.graph] reader: a resumable cursor over text fed in
      arbitrary pieces. Complete lines are tokenized as they arrive (an
      incomplete trailing line is carried to the next {!feed}) and each
      adjacency row goes straight into an incremental CSR builder.
      Memory grows with the rows actually received, never with the
      counts a header merely declares.

      Checks run in this order, and the first defect found is the one
      reported:
      + on arrival, in text order: the header, integer syntax, missing
        vertex sizes, vertex weights or edge weights, then each
        mention's range and self loop;
      + at {!finish}: the node-line count;
      + then the whole graph, validated once by {!Wgraph.of_csr} after
        unsorted rows are sorted. If it is rejected, a diagnostic pass
        names the first defect in the order: duplicates in a row, then
        an edge listed on one endpoint only or with unequal weights
        (by ascending node, then neighbour), then negative edge
        weights, then negative node weights;
      + last, the declared edge count. *)

  type t

  val create : unit -> t

  val rows_done : t -> int
  (** Number of complete node rows received so far. *)

  val feed : t -> string -> unit
  (** Append a piece of text; piece boundaries may fall anywhere.
      @raise Failure as {!of_metis} on malformed complete lines,
      including a header whose node count cannot index an array. *)

  val finish : t -> Wgraph.t
  (** End of input: parse any carried partial line, then run the
      deferred validation.
      @raise Failure (and only [Failure]) with {!of_metis}'s messages,
      including "empty input" and the truncated / surplus node-line
      counts. *)
end

val to_metis_chunks : ?rows_per_chunk:int -> Wgraph.t -> (string -> unit) -> unit
(** [to_metis_chunks g emit]: {!to_metis} output delivered through
    [emit] in pieces cut at node-row boundaries ([rows_per_chunk] rows
    per piece, default 4096), without materializing the whole text.
    {!to_metis} is this emitter collected into one string.
    @raise Invalid_argument if [rows_per_chunk < 1]. *)

val to_adjacency_matrix : Wgraph.t -> string
(** Dense symmetric matrix of edge weights, one row per line, space
    separated; first line is [n], second line the node weights. *)

val of_adjacency_matrix : string -> Wgraph.t
(** Parses {!to_adjacency_matrix} output.
    @raise Failure (and only [Failure], as {!of_metis}) if the matrix is
    not symmetric, has a nonzero diagonal, or carries negative
    weights. *)

val to_dot :
  ?partition:int array ->
  ?label:string ->
  ?weighted:bool ->
  Wgraph.t ->
  string
(** DOT rendering. With [~partition], nodes are grouped into [cluster_p]
    subgraphs and colored per part — the layout of the paper's partitioned
    figures (4, 5, 8, 9, 12, 13). With [~weighted:false], node and edge
    weight labels are suppressed — the "before weighting" figures (2, 6,
    10). Default [weighted = true] matches Figures 3, 7, 11. *)

val write_file : string -> string -> unit
(** [write_file path contents] creates/truncates [path]. *)

val read_file : string -> string

val log_src : Logs.Src.t
(** The [ppnpart.graph] log source. *)
