(** The daemon's request handler: a registry of submitted graphs, their
    retained labellings and run reports, and the dispatch from parsed
    {!Protocol.command}s to the partitioning stack.

    Thread-safety: the registry has one lock for id lookup/insertion,
    and each entry has its own — held for the whole compute of a
    request against that graph — so requests for {e different} graphs
    run fully concurrently on the worker pool while requests for the
    {e same} graph serialize (the retained labelling is the seed of the
    next [repartition]; interleaving would race it).

    Every failure mode of a request — unknown graph id, malformed METIS
    text ([Failure] from the reader), malformed edit batch
    ({!Ppnpart_partition.Graph_edit.Invalid_edit}), repartition before
    partition — becomes an [{"ok":false}] frame; {!handle} never raises
    and never kills a worker. *)

open Ppnpart_partition

type t

val create : unit -> t

val handle :
  t ->
  workspace:Workspace.t ->
  Json.t option * (Protocol.command, string) result ->
  string * [ `Continue | `Shutdown ]
(** [handle t ~workspace parsed] is [(response_line, verdict)].
    [workspace] is the calling worker's resident scratch: it backs the
    hole seeding and tabu rescue of a [repartition], nothing that must
    survive the request.

    The refinement state of a graph's last incremental answer is kept
    with the graph, in a {!Ppnpart_core.Gp.resident} slot that owns its
    own workspace (about [(k + 13) · n] words, allocated by the first
    [repartition]). The next [repartition] of that graph whose batch
    keeps node ids stable patches it instead of rebuilding it
    ({!Ppnpart_core.Gp.repartition}). A [partition] of the graph drops
    the held state, and a re-[submit] replaces the entry and its slot
    with it; either way the next [repartition] answers exactly what a
    fresh service would.

    A (re)partition response carries its labels as the last field,
    written digit by digit into the response buffer.
    [`Shutdown] accompanies the response to a [shutdown] command; the
    caller owns actually stopping the server. *)

val stats : t -> (string * Json.t) list
(** The fields of the [stats] response: graphs resident, chunked
    uploads in progress, requests served, error frames sent. *)
