(* Reference METIS parser: the batch implementation [Graph_io.of_metis]
   had before it became a thin wrapper over [Graph_io.Rows], kept
   verbatim as the reader's differential oracle. One cursor over the
   whole text, a per-pair hash table for the symmetry checks, the same
   [Failure] messages.

   Usage: [Metis_oracle.of_metis text], compared against
   [Graph_io.of_metis text] on its graph or its [Failure] message. It
   sizes arrays from the header, so keep hostile headers away from it. *)

open Ppnpart_graph

(* Readers promise "@raise Failure" and nothing else, but the
   constructors they finish with ([Edge_list.add], [Wgraph.build])
   signal their own checks — negative weights, mostly — with
   [Invalid_argument]. Daemon request handling catches the one
   documented type and replies with an error frame; an undocumented
   [Invalid_argument] leaking through would kill the connection
   instead. Funnel them here. *)
let failure_only ~reader f =
  try f () with Invalid_argument msg -> failwith (reader ^ ": " ^ msg)

(* Single-pass METIS parser: one cursor over the raw text. The previous
   parser split the whole input into a line list and every line into a
   token string list before converting — on a multi-million-edge file
   that transient list/string garbage dwarfed the graph itself and
   dominated ingest time. Only the error paths allocate now. *)
let of_metis text =
  let len = String.length text in
  let pos = ref 0 in
  let is_hspace c = c = ' ' || c = '\t' || c = '\r' in
  let skip_hspace () =
    while !pos < len && is_hspace text.[!pos] do
      incr pos
    done
  in
  (* Advance to the first token of the next non-blank, non-comment line;
     false at end of input. *)
  let rec next_line () =
    skip_hspace ();
    if !pos >= len then false
    else
      match text.[!pos] with
      | '\n' ->
        incr pos;
        next_line ()
      | '%' ->
        while !pos < len && text.[!pos] <> '\n' do
          incr pos
        done;
        next_line ()
      | _ -> true
  in
  let at_eol () =
    skip_hspace ();
    !pos >= len || text.[!pos] = '\n'
  in
  (* The token at the cursor as an int. The all-decimal hot path
     accumulates in place; anything else (signs, hex/underscore forms,
     garbage, > 18 digits) falls back to a substring + [int_of_string],
     so acceptance and the "not an integer" failure match the line-list
     tokenizer exactly. Callers guarantee [not (at_eol ())]. *)
  let token_int () =
    let start = !pos in
    let v = ref 0 and digits = ref 0 and plain = ref true in
    while !pos < len && (not (is_hspace text.[!pos])) && text.[!pos] <> '\n' do
      let c = text.[!pos] in
      if c >= '0' && c <= '9' then begin
        v := (!v * 10) + (Char.code c - Char.code '0');
        incr digits
      end
      else plain := false;
      incr pos
    done;
    if !plain && !digits > 0 && !digits <= 18 then !v
    else begin
      let s = String.sub text start (!pos - start) in
      match int_of_string_opt s with
      | Some i -> i
      | None -> failwith ("Graph_io: not an integer: " ^ s)
    end
  in
  if not (next_line ()) then failwith "Graph_io.of_metis: empty input";
  let h1 = token_int () in
  if at_eol () then failwith "Graph_io.of_metis: bad header";
  let h2 = token_int () in
  let n, m_decl, has_vsize, has_vwgt, has_ewgt =
    if at_eol () then (h1, h2, false, false, false)
    else begin
      let fmt = token_int () in
      if not (at_eol ()) then failwith "Graph_io.of_metis: bad header";
      (h1, h2, fmt / 100 mod 10 = 1, fmt / 10 mod 10 = 1, fmt mod 10 = 1)
    end
  in
  if n < 0 then failwith "Graph_io.of_metis: bad header";
  let vwgt = Array.make n 1 in
  (* Every directed adjacency mention, keyed by the undirected pair.
     Checking each pair individually — both directions present, listed
     exactly once each, equal weights — catches asymmetries that
     compensating errors (e.g. a duplicated upper-triangle entry merged
     by weight addition) would slip past an aggregate edge count. *)
  let seen = Hashtbl.create (max 16 (2 * m_decl)) in
  let record u v w =
    if v < 0 || v >= n then
      failwith
        (Printf.sprintf
           "Graph_io.of_metis: neighbour %d of node %d out of range"
           (v + 1) (u + 1));
    if v = u then
      failwith
        (Printf.sprintf "Graph_io.of_metis: self loop on node %d" (u + 1));
    let key = (min u v, max u v) in
    let up, down =
      Option.value ~default:([], []) (Hashtbl.find_opt seen key)
    in
    Hashtbl.replace seen key
      (if u < v then (w :: up, down) else (up, w :: down))
  in
  for u = 0 to n - 1 do
    if not (next_line ()) then
      failwith
        (Printf.sprintf "Graph_io.of_metis: expected %d node lines, got %d" n
           u);
    if has_vsize then begin
      if at_eol () then failwith "Graph_io.of_metis: missing vertex size";
      ignore (token_int ())
    end;
    if has_vwgt then begin
      if at_eol () then failwith "Graph_io.of_metis: missing vertex weight";
      vwgt.(u) <- token_int ()
    end;
    while not (at_eol ()) do
      let v = token_int () in
      if has_ewgt then begin
        if at_eol () then
          failwith
            (Printf.sprintf
               "Graph_io.of_metis: neighbour of node %d without a weight"
               (u + 1));
        record u (v - 1) (token_int ())
      end
      else record u (v - 1) 1
    done
  done;
  if next_line () then begin
    (* Error path only: count the surplus lines for the message. *)
    let extra = ref 0 in
    while next_line () do
      incr extra;
      while !pos < len && text.[!pos] <> '\n' do
        incr pos
      done
    done;
    failwith
      (Printf.sprintf "Graph_io.of_metis: expected %d node lines, got %d" n
         (n + !extra))
  end;
  failure_only ~reader:"Graph_io.of_metis" @@ fun () ->
  begin
    let el = Edge_list.create n in
    Hashtbl.iter
      (fun (u, v) (up, down) ->
        let pair = Printf.sprintf "%d-%d" (u + 1) (v + 1) in
        match (up, down) with
        | [ wu ], [ wd ] ->
          if wu <> wd then
            failwith
              (Printf.sprintf
                 "Graph_io.of_metis: asymmetric weight on edge %s (%d vs %d)"
                 pair wu wd);
          Edge_list.add el u v wu
        | _ :: _ :: _, _ | _, _ :: _ :: _ ->
          failwith
            (Printf.sprintf
               "Graph_io.of_metis: duplicate adjacency entry for edge %s" pair)
        | [], _ | _, [] ->
          failwith
            (Printf.sprintf
               "Graph_io.of_metis: asymmetric adjacency: edge %s is listed \
                on one endpoint only"
               pair))
      seen;
    let g = Wgraph.build ~vwgt el in
    if Wgraph.n_edges g <> m_decl then
      failwith
        (Printf.sprintf "Graph_io.of_metis: declared %d edges, found %d"
           m_decl (Wgraph.n_edges g));
    Wgraph.validate g;
    g
  end
