(* ppnpartd: the resident partition daemon.

   Serves partition / edit-and-repartition requests over a unix socket
   speaking newline-delimited JSON (see Ppnpart_server.Protocol for the
   frames, or the README "Daemon" section for an example session).
   Graphs arrive either whole (submit) or as chunked submit-begin /
   submit-rows / submit-end frames fed to the incremental METIS
   reader, so a large netlist never has to fit one frame. Compute runs
   on a pool of resident worker domains, each owning one reusable
   Workspace for its lifetime, so steady-state requests allocate no
   scratch. *)

open Cmdliner
module Daemon = Ppnpart_server.Daemon

let log_level_arg =
  let levels =
    [ ("quiet", None); ("app", Some Logs.App); ("error", Some Logs.Error);
      ("warning", Some Logs.Warning); ("info", Some Logs.Info);
      ("debug", Some Logs.Debug) ]
  in
  Arg.(
    value
    & opt (enum levels) (Some Logs.Warning)
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Log verbosity: $(b,quiet), $(b,app), $(b,error), $(b,warning), \
           $(b,info) or $(b,debug).")

let setup_logs_term =
  let setup level =
    Fmt_tty.setup_std_outputs ();
    Logs.set_level ~all:true level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const setup $ log_level_arg)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:
          "Unix socket to listen on. A stale socket file left by a dead \
           daemon is replaced; any other existing file makes startup fail.")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:
          "Resident worker domains. Each owns one workspace for its whole \
           lifetime; requests for different graphs run concurrently on up \
           to $(docv) domains. 0 (the default) means auto: the recommended \
           domain count of the host. An explicit value above the core \
           count is honored but warned about — compute-bound workers \
           beyond the hardware only add scheduler churn.")

let queue_limit_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:
          "Per-connection bound on queued requests; beyond it requests are \
           refused immediately with an error frame instead of queueing \
           without bound.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Collect server and partitioner metrics for the daemon's \
           lifetime and write an OpenMetrics snapshot to $(docv) on \
           shutdown ($(b,-) for stdout).")

let run () socket workers queue_limit metrics_out =
  if workers < 0 then begin
    Printf.eprintf "error: --workers must be >= 0 (0 = auto)\n";
    2
  end
  else if queue_limit < 1 then begin
    Printf.eprintf "error: --queue-limit must be >= 1\n";
    2
  end
  else begin
    let recommended = Ppnpart_exec.Domains.recommended () in
    let workers = if workers = 0 then recommended else workers in
    if workers > recommended then
      Logs.warn (fun m ->
          m
            "--workers %d exceeds the recommended domain count (%d); \
             compute-bound workers past the core count reduce throughput"
            workers recommended);
    let metrics = metrics_out <> None in
    if metrics then Ppnpart_obs.Obs.install_registry ();
    match
      Daemon.serve { Daemon.socket_path = socket; workers; queue_limit }
    with
    | () ->
      (match metrics_out with
      | None -> ()
      | Some path ->
        let snap =
          Option.value ~default:Ppnpart_obs.Metrics_registry.empty_snapshot
            (Ppnpart_obs.Obs.finish_registry ())
        in
        let text = Ppnpart_obs.Trace_export.to_openmetrics snap in
        if path = "-" then print_string text
        else begin
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc text)
        end);
      0
    | exception Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "error: %s: %s (%s)\n" fn (Unix.error_message err) arg;
      1
    | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  end

let cmd =
  let term =
    Term.(
      const run $ setup_logs_term $ socket_arg $ workers_arg
      $ queue_limit_arg $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "ppnpartd" ~version:"%%VERSION%%"
       ~doc:"Resident K-way partitioning daemon (NDJSON over a unix socket)"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Accepts newline-delimited JSON requests: submit a graph, \
              partition it under bandwidth/resource constraints, apply a \
              small edit and incrementally repartition, fetch the retained \
              run report, or shut the daemon down. One response object per \
              request, in request order per connection.";
           `S Manpage.s_examples;
           `Pre
             "  ppnpartd --socket /tmp/ppnpart.sock --workers 4 &\n\
             \  printf '%s\\\\n' '{\"op\":\"stats\"}' | socat - \
              UNIX-CONNECT:/tmp/ppnpart.sock"
         ])
    term

let () = exit (Cmd.eval' cmd)
