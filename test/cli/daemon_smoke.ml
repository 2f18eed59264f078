(* Daemon smoke test: spawn the real ppnpartd binary, drive one
   scripted session over its socket (submit, partition, an
   edit-and-repartition, report, shutdown), and require a clean exit
   and a metrics dump that counted every frame of the session: the
   requests run on the daemon's worker domains, so this checks that
   their metrics reach --metrics-out.

   Usage: daemon_smoke <path-to-ppnpartd.exe>. Prints PASS and exits 0,
   or prints the failing step and exits 1 — wired into `dune runtest`
   from test/cli/dune. *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt

let expect name cond = if not cond then die "%s" name

(* Minimal response checks on the raw line — enough for a smoke test
   without pulling the server library into the CLI test tree. *)
let has_prefix line p =
  String.length line >= String.length p && String.sub line 0 (String.length p) = p

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let daemon_exe =
    if Array.length Sys.argv < 2 then die "usage: daemon_smoke <ppnpartd.exe>"
    else Sys.argv.(1)
  in
  let dir = Filename.temp_file "ppnpartd-smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "d.sock" in
  let metrics_path = Filename.concat dir "metrics.om" in
  let pid =
    Unix.create_process daemon_exe
      [| daemon_exe; "--socket"; socket_path; "--workers"; "2";
         "--metrics-out"; metrics_path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* Wait for the socket to appear (the daemon binds before serving). *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists socket_path) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.02)
  done;
  expect "daemon created its socket" (Sys.file_exists socket_path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let frames = ref 0 in
  let request line =
    incr frames;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | response -> response
    | exception End_of_file -> die "connection closed answering %s" line
  in
  (* 6-node ring in the writer's own METIS dialect (fmt 011): header
     "n m 011", then per node its weight followed by 1-indexed
     "neighbor weight" pairs; \n stays escaped inside the JSON frame. *)
  let metis =
    "6 6 011\\n1 2 1 6 1\\n1 1 1 3 1\\n1 2 1 4 1\\n1 3 1 5 1\\n1 4 1 6 1\\n\
     1 5 1 1 1\\n"
  in
  let r =
    request
      (Printf.sprintf
         "{\"id\":1,\"op\":\"submit\",\"graph\":\"ring\",\"metis\":\"%s\"}"
         metis)
  in
  expect "submit ok" (has_prefix r "{\"ok\":true" && contains r "\"nodes\":6");
  let r =
    request "{\"id\":2,\"op\":\"partition\",\"graph\":\"ring\",\"k\":2,\"seed\":1}"
  in
  expect "partition ok"
    (has_prefix r "{\"ok\":true" && contains r "\"feasible\":true");
  let r =
    request
      "{\"id\":3,\"op\":\"repartition\",\"graph\":\"ring\",\"edits\":\
       [{\"op\":\"add_node\",\"weight\":1,\"neighbors\":[[0,1],[3,1]]}]}"
  in
  expect "repartition ok"
    (has_prefix r "{\"ok\":true" && contains r "\"nodes\":7");
  let r = request "{\"id\":4,\"op\":\"report\",\"graph\":\"ring\"}" in
  expect "report ok"
    (has_prefix r "{\"ok\":true" && contains r "ppnpart-run-report");
  let r = request "{\"id\":5,\"op\":\"nonsense\"}" in
  expect "bad op answered, connection survives" (has_prefix r "{\"ok\":false");
  let r = request "{\"id\":6,\"op\":\"shutdown\"}" in
  expect "shutdown acknowledged" (has_prefix r "{\"ok\":true");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  expect "daemon exited 0" (status = Unix.WEXITED 0);
  expect "socket removed" (not (Sys.file_exists socket_path));
  expect "metrics dump written" (Sys.file_exists metrics_path);
  let dump = In_channel.with_open_bin metrics_path In_channel.input_all in
  let requests =
    List.find_map
      (fun line ->
        let key = "ppnpart_server_requests_total " in
        if has_prefix line key then
          int_of_string_opt
            (String.sub line (String.length key)
               (String.length line - String.length key))
        else None)
      (String.split_on_char '\n' dump)
  in
  (match requests with
  | Some n when n = !frames -> ()
  | Some n -> die "metrics dump counted %d requests, session sent %d" n !frames
  | None -> die "metrics dump has no server.requests counter:\n%s" dump);
  Sys.remove metrics_path;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  print_endline "PASS"
