(** The resident partition daemon: a unix-socket NDJSON server over
    {!Service} and {!Ppnpart_exec.Worker_pool}.

    Architecture: the calling thread owns the listening socket and
    accepts; each connection gets a lightweight reader thread that
    frames lines, parses them ({!Protocol.parse} — cheap relative to
    compute) and submits one job per request to the worker pool, whose
    [workers] resident domains each hold one
    {!Ppnpart_partition.Workspace} for their lifetime. A request's
    response is written by the worker that computed it, under the
    connection's write lock; the pool runs one job per client at a
    time, so responses leave in request order per connection.

    Back-pressure: a connection may have at most [queue_limit] requests
    queued; beyond that, requests are refused immediately with an
    [{"ok":false,"error":"overloaded..."}] frame (written from the
    reader thread, so a refusal can overtake earlier responses still
    computing — it refers to the queue, not to any one request's
    outcome).

    Framing: a request line may be at most {!max_frame_bytes} bytes
    long. A longer one is answered with
    [{"ok":false,"error":"frame longer than N bytes"}] as soon as it
    crosses the bound (written by the reader thread, so like an
    overload refusal it can overtake earlier responses still
    computing); the rest of it, up to its newline, is read and dropped
    without being buffered, and the connection goes on serving the next
    line. A graph whose METIS text exceeds the bound is
    uploaded with [submit-begin]/[submit-rows]/[submit-end].

    Shutdown: a [shutdown] request answers, then closes the listener;
    {!serve} drains every accepted job, shuts every connection down and
    returns. *)

val max_frame_bytes : int
(** 32 MiB: the longest request line a connection accepts. *)

type opts = {
  socket_path : string;  (** unix socket path; replaced if present *)
  workers : int;  (** resident worker domains (≥ 1) *)
  queue_limit : int;  (** per-connection queued-request bound (≥ 1) *)
}

val serve : ?ready:(unit -> unit) -> opts -> unit
(** Run the daemon until a [shutdown] request; blocks the calling
    thread. [ready] fires once the socket is listening (tests use it to
    connect without polling).
    @raise Unix.Unix_error if the socket cannot be bound. *)
