(** The daemon's wire protocol: newline-delimited JSON.

    One request object per line, one response object per line, in
    request order per connection. Every response carries ["ok"] first;
    an ["id"] field on a request (any JSON value) is echoed verbatim in
    its response so pipelining clients can match them up.

    Requests (fields beyond ["op"]/["id"]):

    - [{"op":"submit","graph":ID,"metis":TEXT}] — register a graph
      under a client-chosen string id (METIS text, the CLI's format);
      re-submitting an id replaces the graph and drops its labelling.
    - [{"op":"submit-begin","graph":ID}], then any number of
      [{"op":"submit-rows","graph":ID,"metis":PIECE}], then
      [{"op":"submit-end","graph":ID}] — the same submission delivered
      in pieces, fed to the incremental METIS reader
      ({!Ppnpart_graph.Graph_io.Rows}) as frames arrive; pieces may cut
      lines anywhere. Only [submit-end] installs the graph (replacing
      any previous holder of the id, exactly as [submit]); a malformed
      piece drops the upload with an error frame and leaves the
      connection and any previously installed graph untouched.
    - [{"op":"partition","graph":ID,"k":K,"bmax":B,"rmax":R,"mode":M,
       "seed":S}] — partition a submitted graph.
      [bmax]/[rmax] default to unconstrained, [mode] to
      ["multilevel"], [seed] to 0. The labelling is retained for
      subsequent [repartition] calls.
    - [{"op":"repartition","graph":ID,"edits":[...]}] — apply an edit
      batch and incrementally repartition from the retained labelling
      (see {!Ppnpart_core.Gp.repartition}); edits use the op spellings
      of {!Ppnpart_partition.Graph_edit.op_name}, e.g.
      [{"op":"add_edge","u":0,"v":5,"w":3}],
      [{"op":"add_node","weight":2,"neighbors":[[4,1],[7,2]]}],
      [{"op":"remove_node","node":9}]. The edited graph and new
      labelling replace the stored ones.
    - [{"op":"report","graph":ID}] — the retained run report
      ([ppnpart-run-report/1]) of the last (re)partition.
    - [{"op":"stats"}] — server counters.
    - [{"op":"shutdown"}] — drain and exit.

    Fields an op does not use are ignored, so a [partition] frame from
    an older client that still carries ["jobs"] or ["stream_jobs"]
    parses as if it did not: the daemon partitions on its worker
    domains, where the pool runs sequentially.

    Error responses are [{"ok":false,"id":...,"error":MSG}] and never
    close the connection; only EOF (or [shutdown]) does. *)

open Ppnpart_partition
module Config = Ppnpart_core.Config

type command =
  | Submit of { graph : string; metis : string }
  | Submit_begin of { graph : string }
  | Submit_rows of { graph : string; metis : string }
  | Submit_end of { graph : string }
  | Partition of {
      graph : string;
      c : Types.constraints;
      mode : Config.mode;
      seed : int;
    }
  | Repartition of { graph : string; edits : Graph_edit.op list }
  | Report of { graph : string }
  | Stats
  | Shutdown

val parse : string -> Json.t option * (command, string) result
(** [parse line] is [(id, command_or_error)]. The [id] is extracted
    best-effort even from a malformed request, so the error frame can
    still echo it; [None] when the line is not a JSON object or has no
    ["id"]. *)

val ok : ?id:Json.t -> (string * Json.t) list -> string
(** [{"ok":true,"id":...,FIELDS}] — one line, no trailing newline. *)

val error : ?id:Json.t -> string -> string
(** [{"ok":false,"id":...,"error":MSG}]. *)

val ok_with :
  ?id:Json.t -> (string * Json.t) list -> string * (Buffer.t -> unit) -> string
(** [ok_with fields (key, add)] is {!ok} with one more, last field
    [key] whose value [add] writes straight into the response buffer —
    for values too large to build as a {!Json.t} first, such as a
    labelling ({!Json.add_int_array}). *)
