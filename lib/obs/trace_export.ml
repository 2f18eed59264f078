(* Exporters: a finished capture as Chrome trace-event JSON (loads in
   chrome://tracing and Perfetto) or a JSONL event stream, and a
   registry snapshot as OpenMetrics text.

   All walks are depth-first over the buffer tree in emission order.
   Virtual track ids (vt) are assigned in walk order — root buffer is
   track 0, every task buffer gets the next free id — so ids depend only
   on the task structure, never on the domain schedule. *)

let json_value = function
  | Obs.Int i -> string_of_int i
  | Obs.Float f -> Printf.sprintf "%.6g" f
  | Obs.Str s -> Json.quote s
  | Obs.Bool b -> string_of_bool b

let json_args args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Json.quote k ^ ":" ^ json_value v) args)
  ^ "}"

(* --- Chrome trace-event format --- *)

let to_chrome (cap : Obs.capture) =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let line s =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b s
  in
  let counter_cum : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let next_tid = ref 0 in
  let rec walk buf =
    let tid = !next_tid in
    incr next_tid;
    line
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}"
         tid
         (Json.quote (if tid = 0 then "main" else "task")));
    List.iter
      (fun (ev : Obs.event) ->
        match ev with
        | Obs.Begin { name; ts; args } ->
          let args_field =
            if args = [] then "" else ",\"args\":" ^ json_args args
          in
          line
            (Printf.sprintf
               "{\"name\":%s,\"cat\":\"ppnpart\",\"ph\":\"B\",\"ts\":%d,\"pid\":1,\"tid\":%d%s}"
               (Json.quote name) ts tid args_field)
        | Obs.End { ts; args } ->
          let args_field =
            if args = [] then "" else ",\"args\":" ^ json_args args
          in
          line
            (Printf.sprintf
               "{\"ph\":\"E\",\"ts\":%d,\"pid\":1,\"tid\":%d%s}" ts tid
               args_field)
        | Obs.Instant { name; ts; args } ->
          let args_field =
            if args = [] then "" else ",\"args\":" ^ json_args args
          in
          line
            (Printf.sprintf
               "{\"name\":%s,\"cat\":\"ppnpart\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":1,\"tid\":%d%s}"
               (Json.quote name) ts tid args_field)
        | Obs.Count { name; ts; delta } ->
          let cum =
            delta
            + Option.value ~default:0 (Hashtbl.find_opt counter_cum name)
          in
          Hashtbl.replace counter_cum name cum;
          line
            (Printf.sprintf
               "{\"name\":%s,\"ph\":\"C\",\"ts\":%d,\"pid\":1,\"tid\":0,\"args\":{\"value\":%d}}"
               (Json.quote name) ts cum)
        | Obs.Sample { name; ts; value } ->
          line
            (Printf.sprintf
               "{\"name\":%s,\"ph\":\"C\",\"ts\":%d,\"pid\":1,\"tid\":0,\"args\":{\"value\":%s}}"
               (Json.quote name) ts
               (Printf.sprintf "%.6g" value))
        | Obs.Child child -> walk child)
      (Obs.events buf)
  in
  walk cap.root;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* --- JSONL event stream --- *)

let to_jsonl (cap : Obs.capture) =
  let b = Buffer.create 65536 in
  let next_tid = ref 0 in
  let rec walk parent buf =
    let vt = !next_tid in
    incr next_tid;
    if vt > 0 then
      Buffer.add_string b
        (Printf.sprintf "{\"ev\":\"task\",\"vt\":%d,\"parent\":%d}\n" vt
           parent);
    List.iter
      (fun (ev : Obs.event) ->
        let args_field args =
          if args = [] then "" else ",\"args\":" ^ json_args args
        in
        match ev with
        | Obs.Begin { name; ts; args } ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"ev\":\"begin\",\"vt\":%d,\"name\":%s,\"ts\":%d%s}\n" vt
               (Json.quote name) ts (args_field args))
        | Obs.End { ts; args } ->
          Buffer.add_string b
            (Printf.sprintf "{\"ev\":\"end\",\"vt\":%d,\"ts\":%d%s}\n" vt ts
               (args_field args))
        | Obs.Instant { name; ts; args } ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"ev\":\"instant\",\"vt\":%d,\"name\":%s,\"ts\":%d%s}\n" vt
               (Json.quote name) ts (args_field args))
        | Obs.Count { name; ts; delta } ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"ev\":\"count\",\"vt\":%d,\"name\":%s,\"ts\":%d,\"delta\":%d}\n"
               vt (Json.quote name) ts delta)
        | Obs.Sample { name; ts; value } ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"ev\":\"sample\",\"vt\":%d,\"name\":%s,\"ts\":%d,\"value\":%s}\n"
               vt (Json.quote name) ts
               (Printf.sprintf "%.6g" value))
        | Obs.Child child -> walk vt child)
      (Obs.events buf)
  in
  walk 0 cap.root;
  Buffer.contents b

(* --- OpenMetrics text format (Prometheus-scrapable) --- *)

let sanitize_metric_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let om_name name = "ppnpart_" ^ sanitize_metric_name name

let om_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_openmetrics (snap : Metrics_registry.snapshot) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s counter\n%s_total %d\n" n n v))
    snap.counters;
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (om_float v)))
    snap.gauges;
  List.iter
    (fun (name, (h : Histogram.snapshot)) ->
      let n = om_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      Array.iter
        (fun (i, c) ->
          cum := !cum + c;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
               (om_float (Histogram.upper_bound i))
               !cum))
        h.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.count);
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (om_float h.sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.count))
    snap.histograms;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
