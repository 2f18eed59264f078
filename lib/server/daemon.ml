open Ppnpart_partition
module Worker_pool = Ppnpart_exec.Worker_pool

let src = Logs.Src.create "ppnpart.daemon" ~doc:"Partition daemon socket layer"

module Log = (val Logs.src_log src : Logs.LOG)

type opts = { socket_path : string; workers : int; queue_limit : int }

type conn = { fd : Unix.file_descr; wlock : Mutex.t }

type server = {
  listen_fd : Unix.file_descr;
  socket_path : string;
  pool : (Workspace.t, string * [ `Continue | `Shutdown ]) Worker_pool.t;
  service : Service.t;
  lock : Mutex.t;
  mutable conns : conn list;
  mutable stopping : bool;
  mutable next_client : int;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* One full line per write call, under the connection's lock: responses
   from different worker domains never interleave mid-line. *)
let send conn line =
  with_lock conn.wlock (fun () ->
      let msg = line ^ "\n" in
      let len = String.length msg in
      let off = ref 0 in
      try
        while !off < len do
          off := !off + Unix.write_substring conn.fd msg !off (len - !off)
        done
      with Unix.Unix_error _ -> (* peer went away; reader will notice *) ())

let request_stop srv =
  let first =
    with_lock srv.lock (fun () ->
        if srv.stopping then false
        else begin
          srv.stopping <- true;
          true
        end)
  in
  if first then
    (* Closing the listener does NOT wake a thread already blocked in
       [accept]; a throwaway connection does, portably. The accept
       loop sees [stopping] and returns. *)
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.connect fd (Unix.ADDR_UNIX srv.socket_path))
    with Unix.Unix_error _ -> ()

let max_frame_bytes = 32 * 1024 * 1024
let chunk_bytes = 64 * 1024

let dispatch srv conn client line =
  if String.trim line <> "" then begin
    let ((id, _) as parsed) = Protocol.parse line in
    let verdict =
      Worker_pool.submit srv.pool ~client
        ~run:(fun ws -> Service.handle srv.service ~workspace:ws parsed)
        ~finish:(fun outcome ->
          match outcome with
          | Ok (response, verdict) ->
            send conn response;
            if verdict = `Shutdown then request_stop srv
          | Error e ->
            (* Service.handle catches everything it knows about;
               this is the backstop for the truly unexpected. *)
            send conn
              (Protocol.error ?id ("internal error: " ^ Printexc.to_string e)))
    in
    match verdict with
    | `Accepted -> ()
    | `Overloaded ->
      send conn
        (Protocol.error ?id
           "overloaded: connection has too many requests queued")
    | `Stopped -> send conn (Protocol.error ?id "server shutting down")
  end

(* Frames are cut out of one reused read chunk; only the frame in
   flight accumulates, and never past [max_frame_bytes]. A longer frame
   is refused as soon as it crosses the bound, and the rest of it, up
   to its newline, is read and dropped — so a client streaming bytes
   without a newline costs a bounded buffer, and the connection keeps
   serving the frames after it. Bytes after the last newline at EOF
   still form a frame, as with [input_line]. *)
let conn_loop srv conn client =
  let chunk = Bytes.create chunk_bytes in
  let frame = Buffer.create 4096 in
  let skipping = ref false in
  let take pos len =
    if not !skipping then
      if Buffer.length frame + len > max_frame_bytes then begin
        send conn
          (Protocol.error
             (Printf.sprintf "frame longer than %d bytes" max_frame_bytes));
        Buffer.reset frame;
        skipping := true
      end
      else Buffer.add_subbytes frame chunk pos len
  in
  let finish_frame () =
    if !skipping then skipping := false
    else begin
      dispatch srv conn client (Buffer.contents frame);
      (* Give a large frame's storage back; keep the small buffer. *)
      if Buffer.length frame > chunk_bytes then Buffer.reset frame
      else Buffer.clear frame
    end
  in
  let rec scan pos len =
    match Bytes.index_from_opt chunk pos '\n' with
    | Some i when i < len ->
      take pos (i - pos);
      finish_frame ();
      scan (i + 1) len
    | _ -> take pos (len - pos)
  in
  let rec read () =
    match Unix.read conn.fd chunk 0 chunk_bytes with
    | 0 -> if Buffer.length frame > 0 then finish_frame ()
    | len ->
      scan 0 len;
      read ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
    | exception Unix.Unix_error _ -> ()
  in
  read ()

let shutdown_conn conn =
  try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let serve ?(ready = fun () -> ()) opts =
  if opts.workers < 1 then invalid_arg "Daemon.serve: workers < 1";
  if opts.queue_limit < 1 then invalid_arg "Daemon.serve: queue_limit < 1";
  (* A stale socket file from a dead daemon would make bind fail;
     replacing it is the conventional unix-socket move. An fs object
     that is not a socket is left alone — refusing beats deleting a
     user's file. *)
  (match Unix.lstat opts.socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink opts.socket_path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX opts.socket_path);
  Unix.listen listen_fd 64;
  let srv =
    {
      listen_fd;
      socket_path = opts.socket_path;
      (* Worker [i]'s workspace is created by [state] on the worker's
         own domain and lives as long as the pool: per-domain workspace
         affinity, so a steady stream of requests allocates no
         steady-state scratch. *)
      pool =
        Worker_pool.create ~workers:opts.workers
          ~queue_limit:opts.queue_limit
          ~state:(fun _i -> Workspace.create ());
      service = Service.create ();
      lock = Mutex.create ();
      conns = [];
      stopping = false;
      next_client = 0;
    }
  in
  Log.info (fun m ->
      m "listening on %s (%d workers, queue limit %d)" opts.socket_path
        opts.workers opts.queue_limit);
  ready ();
  let rec accept_loop () =
    match Unix.accept ~cloexec:true srv.listen_fd with
    | fd, _ when with_lock srv.lock (fun () -> srv.stopping) ->
      (* The wake-up connection from [request_stop], or a client racing
         the shutdown: either way, no service any more. *)
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | fd, _ ->
      let conn = { fd; wlock = Mutex.create () } in
      let client =
        with_lock srv.lock (fun () ->
            srv.conns <- conn :: srv.conns;
            srv.next_client <- srv.next_client + 1;
            srv.next_client)
      in
      ignore
        (Thread.create
           (fun () ->
             (try conn_loop srv conn client
              with e ->
                Log.err (fun m ->
                    m "connection %d: %s" client (Printexc.to_string e)));
             try Unix.close conn.fd with Unix.Unix_error _ -> ())
           ());
      accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ ->
      if not (with_lock srv.lock (fun () -> srv.stopping)) then
        (* accept failed while we were not shutting down: close up shop
           the same way, but loudly. *)
        Log.err (fun m -> m "accept failed; shutting down")
  in
  accept_loop ();
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (* Drain: every accepted request still gets its computed response
     before the connections go down. *)
  Worker_pool.stop srv.pool;
  List.iter shutdown_conn (with_lock srv.lock (fun () -> srv.conns));
  (try Unix.unlink opts.socket_path with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "shut down")
