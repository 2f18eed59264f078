let log_src = Logs.Src.create "ppnpart.graph" ~doc:"Graph serialization and I/O"

let buf_add = Buffer.add_string

(* The bytes of [string_of_int i], written straight into [b]. Graph
   integers are never negative; the rare sign takes the slow path. *)
let rec add_digits b i =
  if i >= 10 then add_digits b (i / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (i mod 10)))

let add_int b i =
  if i >= 0 then add_digits b i else buf_add b (string_of_int i)

(* Row-aligned chunked serialization: the feeding side of {!Rows}. Each
   integer goes into the buffer digit by digit, with no per-integer
   string. *)
let to_metis_chunks ?(rows_per_chunk = 4096) g emit =
  if rows_per_chunk < 1 then
    invalid_arg "Graph_io.to_metis_chunks: rows_per_chunk < 1";
  let b = Buffer.create 65536 in
  let add_int = add_int b in
  add_int (Wgraph.n_nodes g);
  Buffer.add_char b ' ';
  add_int (Wgraph.n_edges g);
  buf_add b " 011\n";
  for u = 0 to Wgraph.n_nodes g - 1 do
    add_int (Wgraph.node_weight g u);
    Wgraph.iter_neighbors g u (fun v w ->
        Buffer.add_char b ' ';
        add_int (v + 1);
        Buffer.add_char b ' ';
        add_int w);
    Buffer.add_char b '\n';
    if (u + 1) mod rows_per_chunk = 0 then begin
      emit (Buffer.contents b);
      Buffer.clear b
    end
  done;
  if Buffer.length b > 0 then emit (Buffer.contents b)

(* With [rows_per_chunk = max_int] the header guarantees exactly one,
   final, piece. *)
let to_metis g =
  let text = ref "" in
  to_metis_chunks ~rows_per_chunk:max_int g (fun s -> text := s);
  !text

(* Readers promise "@raise Failure" and nothing else, but the
   constructors they finish with ([Edge_list.add], [Wgraph.build])
   signal their own checks — negative weights, mostly — with
   [Invalid_argument]. Daemon request handling catches the one
   documented type and replies with an error frame; an undocumented
   [Invalid_argument] leaking through would kill the connection
   instead. Funnel them here. *)
let failure_only ~reader f =
  try f () with Invalid_argument msg -> failwith (reader ^ ": " ^ msg)

(* Tokenize a line into ints, skipping extra whitespace. *)
let ints_of_line line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter_map (fun s ->
         let s = String.trim s in
         if s = "" then None
         else
           match int_of_string_opt s with
           | Some i -> Some i
           | None -> failwith ("Graph_io: not an integer: " ^ s))

(* ------------------------------------------------------------------ *)
(* The METIS reader (DESIGN.md §6.9).                                  *)
(* ------------------------------------------------------------------ *)

let is_digit c = c >= '0' && c <= '9'
let is_hspace c = c = ' ' || c = '\t' || c = '\r'

(* [Builder]: the CSR accumulator behind {!Rows}. Rows arrive in node
   order and each mention is range/self-loop checked on arrival. At
   [finish], unsorted rows are sorted and the whole graph is validated
   once, by [Wgraph.of_csr]'s O(m) sweep: ascending slices, mirrors,
   weight symmetry, negative weights. Only when that sweep rejects the
   graph does [explain] run the O(m log d) diagnostic pass that names
   the defect; the declared edge count is checked last.

   The rows accumulate in growth buffers that double as rows and
   mentions arrive, stopping at the sizes the header declares: memory
   follows the input received, so a hostile header costs nothing until
   its rows arrive. The buffers are Bigarrays, outside the OCaml heap:
   their doubling garbage never grows the major heap, and their
   malloc'd size is charged to the GC's pacing, so a stream of parses
   does not let the major heap balloon between cycles. [finish] copies
   them into the exact-size arrays the graph adopts. *)
module Builder = struct
  module A = Bigarray.Array1

  type buf = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

  type t = {
    n : int;
    m_decl : int;
    mutable vwgt : buf;
    mutable xadj : buf;  (* one longer than [vwgt] *)
    mutable adjncy : buf;
    mutable adjwgt : buf;
    mutable m2 : int;  (* directed mentions recorded so far *)
    mutable next_u : int;  (* rows completed *)
    mutable last_v : int;  (* previous mention of the current row, or -1 *)
    mutable sorted : bool;  (* every row so far strictly ascending *)
  }

  let fail_f fmt = Printf.ksprintf failwith fmt
  let initial_cap = 4096
  let buf cap : buf = A.create Bigarray.int Bigarray.c_layout cap

  (* Next capacity after [cap]: double, but stop at [limit] (the
     declared size) while it is ahead. *)
  let grow_cap ~limit cap =
    let c = max 16 (2 * cap) in
    if cap < limit then min limit c else c

  let grow a cap len =
    let b = buf cap in
    A.blit (A.sub a 0 len) (A.sub b 0 len);
    b

  (* The declared mention count, when the header's [m] is sane. *)
  let mention_limit m_decl =
    if m_decl > 0 && m_decl <= Sys.max_array_length / 2 then 2 * m_decl
    else 0

  let create ~m_decl n =
    if n < 0 || n >= Sys.max_array_length then
      failwith "Graph_io.of_metis: bad header";
    let rows = min n initial_cap in
    let mentions = min (mention_limit m_decl) initial_cap in
    let xadj = buf (rows + 1) in
    xadj.{0} <- 0;
    {
      n;
      m_decl;
      vwgt = buf rows;
      xadj;
      adjncy = buf mentions;
      adjwgt = buf mentions;
      m2 = 0;
      next_u = 0;
      last_v = -1;
      sorted = true;
    }

  let rows_done t = t.next_u

  (* Start row [next_u] (callers never go past row [n - 1]) with the
     default weight 1. *)
  let begin_row t =
    let len = A.dim t.vwgt in
    if t.next_u >= len then begin
      let cap = grow_cap ~limit:t.n len in
      t.vwgt <- grow t.vwgt cap len;
      t.xadj <- grow t.xadj (cap + 1) (len + 1)
    end;
    t.vwgt.{t.next_u} <- 1;
    t.last_v <- -1

  (* One mention [v] (0-based) of weight [w] in the current row. *)
  let mention t v w =
    let u = t.next_u in
    if v < 0 || v >= t.n then
      fail_f "Graph_io.of_metis: neighbour %d of node %d out of range"
        (v + 1) (u + 1);
    if v = u then fail_f "Graph_io.of_metis: self loop on node %d" (u + 1);
    if v <= t.last_v then t.sorted <- false;
    t.last_v <- v;
    if t.m2 >= A.dim t.adjncy then begin
      let cap = grow_cap ~limit:(mention_limit t.m_decl) t.m2 in
      t.adjncy <- grow t.adjncy cap t.m2;
      t.adjwgt <- grow t.adjwgt cap t.m2
    end;
    A.unsafe_set t.adjncy t.m2 v;
    A.unsafe_set t.adjwgt t.m2 w;
    t.m2 <- t.m2 + 1

  (* The fused row loop (DESIGN.md §6.9): the current row's mentions,
     read from [text] straight into the buffers while they come as
     plain pairs. [text.[pos]] is the first byte of a token or the
     row's end (['\n'], or [hi], which is always a line end). A plain
     pair is 1-18 decimal digits, one space, 1-18 digits, then the
     row's end or one space before a byte that is not a blank; its
     neighbour is in range and not [u], and the buffers have room for
     it. The loop stops at the row's end or at the first byte of the
     first pair it does not take, and returns that position with its
     state written back. From there the per-token path ([Rows.token_int]
     and {!mention}) accepts or rejects the pair exactly as it would
     have without this loop. *)
  let plain_pairs t text pos hi =
    let n = t.n and u = t.next_u in
    let adjncy = t.adjncy and adjwgt = t.adjwgt in
    let cap = A.dim adjncy in
    let m2 = ref t.m2 and last_v = ref t.last_v and sorted = ref t.sorted in
    let p = ref pos and go = ref true in
    while !go do
      (* The neighbour's digits are [q, r), the weight's [r + 1, s). *)
      let q = !p in
      let r = ref q and v = ref 0 in
      while !r < hi && is_digit (String.unsafe_get text !r) do
        v := (10 * !v) + Char.code (String.unsafe_get text !r) - 48;
        incr r
      done;
      let r = !r in
      let s = ref (r + 1) and w = ref 0 in
      if r < hi && String.unsafe_get text r = ' ' then
        while !s < hi && is_digit (String.unsafe_get text !s) do
          w := (10 * !w) + Char.code (String.unsafe_get text !s) - 48;
          incr s
        done;
      let s = !s and v = !v - 1 in
      let next =
        if
          r - q < 1 || r - q > 18 || s - r < 2 || s - r > 19 || v < 0
          || v >= n || v = u || !m2 >= cap
        then q
        else if s >= hi || String.unsafe_get text s = '\n' then s
        else if
          String.unsafe_get text s = ' '
          && (s + 1 >= hi || not (is_hspace (String.unsafe_get text (s + 1))))
        then s + 1
        else q
      in
      if next = q then go := false
      else begin
        if v <= !last_v then sorted := false;
        last_v := v;
        A.unsafe_set adjncy !m2 v;
        A.unsafe_set adjwgt !m2 !w;
        incr m2;
        p := next;
        if next = s then go := false
      end
    done;
    t.m2 <- !m2;
    t.last_v <- !last_v;
    t.sorted <- !sorted;
    !p

  let set_vwgt t w = t.vwgt.{t.next_u} <- w

  let end_row t =
    t.next_u <- t.next_u + 1;
    t.xadj.{t.next_u} <- t.m2

  let pair_name u v =
    let a = min u v and b = max u v in
    Printf.sprintf "%d-%d" (a + 1) (b + 1)

  (* [len <= A.dim a] at every call. *)
  let to_array (a : buf) len =
    let r = Array.make len 0 in
    for i = 0 to len - 1 do
      Array.unsafe_set r i (A.unsafe_get a i)
    done;
    r

  (* Error path only, over sorted slices: raises the first defect in a
     deterministic order — duplicates within a row, then both-endpoint
     presence and weight agreement via binary search in the mirror row,
     then negative edge and node weights. Returns if it finds none. *)
  let explain ~vwgt ~xadj ~adjncy ~adjwgt n =
    for u = 0 to n - 1 do
      for i = xadj.(u) + 1 to xadj.(u + 1) - 1 do
        if adjncy.(i) = adjncy.(i - 1) then
          fail_f "Graph_io.of_metis: duplicate adjacency entry for edge %s"
            (pair_name u adjncy.(i))
      done
    done;
    let mirror_index u v =
      (* Position of [u] in [v]'s (sorted, duplicate-free) slice. *)
      let lo = ref xadj.(v) and hi = ref (xadj.(v + 1) - 1) in
      let found = ref (-1) in
      while !found < 0 && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let x = adjncy.(mid) in
        if x = u then found := mid
        else if x < u then lo := mid + 1
        else hi := mid - 1
      done;
      !found
    in
    for u = 0 to n - 1 do
      for i = xadj.(u) to xadj.(u + 1) - 1 do
        let v = adjncy.(i) in
        let j = mirror_index u v in
        if j < 0 then
          fail_f
            "Graph_io.of_metis: asymmetric adjacency: edge %s is listed on \
             one endpoint only"
            (pair_name u v);
        if u < v && adjwgt.(i) <> adjwgt.(j) then
          fail_f "Graph_io.of_metis: asymmetric weight on edge %s (%d vs %d)"
            (pair_name u v)
            adjwgt.(i) adjwgt.(j)
      done
    done;
    (* Weight checks, worded as the [Edge_list.add] / [Wgraph.build]
       constructor messages. *)
    for i = 0 to Array.length adjwgt - 1 do
      if adjwgt.(i) < 0 then
        failwith "Graph_io.of_metis: Edge_list.add: negative weight"
    done;
    for u = 0 to n - 1 do
      if vwgt.(u) < 0 then
        failwith "Graph_io.of_metis: Wgraph.build: negative vwgt"
    done

  let finish t =
    let n = t.n in
    let vwgt = to_array t.vwgt n and xadj = to_array t.xadj (n + 1) in
    let adjncy = to_array t.adjncy t.m2 and adjwgt = to_array t.adjwgt t.m2 in
    (* Rows emitted by [to_metis] (and by every generator in this repo)
       arrive ascending, and then nothing is sorted. Keys may repeat in
       a row: the sort is not stable, but a duplicate's message names
       only node ids. *)
    if not t.sorted then
      for u = 0 to n - 1 do
        Int_sort.sort_pairs adjncy adjwgt ~lo:xadj.(u)
          ~len:(xadj.(u + 1) - xadj.(u))
      done;
    let g =
      try Wgraph.of_csr ~vwgt ~n ~xadj ~adjncy ~adjwgt ()
      with Invalid_argument msg ->
        explain ~vwgt ~xadj ~adjncy ~adjwgt n;
        failwith ("Graph_io.of_metis: " ^ msg)
    in
    if t.m2 / 2 <> t.m_decl then
      fail_f "Graph_io.of_metis: declared %d edges, found %d" t.m_decl
        (t.m2 / 2);
    g
end

(* [Rows]: a resumable cursor over METIS text fed in arbitrary pieces.
   Complete lines are tokenized in place (incomplete trailing lines
   wait in a carry buffer for the next [feed]), each finished
   adjacency row goes into the {!Builder}, and [finish] runs the
   deferred whole-graph validation. In rows with edge weights the
   neighbour/weight pairs go through {!Builder.plain_pairs}, which
   takes plain pairs (1-18 digits, one space, 1-18 digits, one space
   or the newline) straight into the buffers; it hands any other pair
   (blank runs, tabs, [\r], signs, other integer spellings, longer
   tokens, a neighbour out of range or equal to the row's node, a full
   buffer) to the per-token path below at the pair's first byte, and
   takes over again after it. [process] sees only whole lines, so the
   one-shot and the chunked reader run the same loop. *)
module Rows = struct
  type phase =
    | Header
    | Fields of Builder.t  (* header seen, waiting for node rows *)
    | Done of Builder.t * int
        (* all rows seen; counts surplus non-blank lines *)

  type t = {
    mutable phase : phase;
    mutable has_vsize : bool;
    mutable has_vwgt : bool;
    mutable has_ewgt : bool;
    pending : Buffer.t;
    mutable finished : bool;
  }

  let create () =
    {
      phase = Header;
      has_vsize = false;
      has_vwgt = false;
      has_ewgt = false;
      pending = Buffer.create 256;
      finished = false;
    }

  let rows_done t =
    match t.phase with
    | Header -> 0
    | Fields b | Done (b, _) -> Builder.rows_done b

  (* The tokenizer: a cursor over [text.[cur.pos .. hi - 1]], with
     [hi <= String.length text], so every read below [hi] is in
     bounds. *)
  type cursor = { mutable pos : int }

  let skip_hspace cur text hi =
    let p = ref cur.pos in
    while !p < hi && is_hspace (String.unsafe_get text !p) do
      incr p
    done;
    cur.pos <- !p

  let skip_to_eol cur text hi =
    let p = ref cur.pos in
    while !p < hi && String.unsafe_get text !p <> '\n' do
      incr p
    done;
    cur.pos <- !p

  (* Advance to the first token of the next non-blank, non-comment
     line; false at the end of the range. *)
  let rec next_line cur text hi =
    skip_hspace cur text hi;
    if cur.pos >= hi then false
    else
      match String.unsafe_get text cur.pos with
      | '\n' ->
        cur.pos <- cur.pos + 1;
        next_line cur text hi
      | '%' ->
        skip_to_eol cur text hi;
        next_line cur text hi
      | _ -> true

  (* Between tokens the cursor rests on a non-blank byte: [next_line]
     and [token_int] both leave it past any horizontal blanks, so the
     end-of-line test needs no scan. *)
  let at_eol cur text hi =
    cur.pos >= hi || String.unsafe_get text cur.pos = '\n'

  (* The token at the cursor as an int, and the cursor moved past it and
     the blanks after it. The all-decimal hot path accumulates in place;
     anything else (signs, hex/underscore forms, garbage, > 18 digits)
     falls back to a substring + [int_of_string]. Callers guarantee
     [not (at_eol cur text hi)]. *)
  let token_int cur text hi =
    let start = cur.pos in
    let p = ref start and v = ref 0 and plain = ref true in
    let continue = ref true in
    while !continue && !p < hi do
      match String.unsafe_get text !p with
      | '0' .. '9' as c ->
        v := (!v * 10) + (Char.code c - Char.code '0');
        incr p
      | ' ' | '\t' | '\r' | '\n' -> continue := false
      | _ ->
        plain := false;
        incr p
    done;
    let len = !p - start in
    while !p < hi && is_hspace (String.unsafe_get text !p) do
      incr p
    done;
    cur.pos <- !p;
    if !plain && len <= 18 then !v
    else begin
      let s = String.sub text start len in
      match int_of_string_opt s with
      | Some i -> i
      | None -> failwith ("Graph_io: not an integer: " ^ s)
    end

  let header t cur text hi =
    let n = token_int cur text hi in
    if at_eol cur text hi then failwith "Graph_io.of_metis: bad header";
    let m_decl = token_int cur text hi in
    if not (at_eol cur text hi) then begin
      let fmt = token_int cur text hi in
      if not (at_eol cur text hi) then failwith "Graph_io.of_metis: bad header";
      t.has_vsize <- fmt / 100 mod 10 = 1;
      t.has_vwgt <- fmt / 10 mod 10 = 1;
      t.has_ewgt <- fmt mod 10 = 1
    end;
    let b = Builder.create ~m_decl n in
    t.phase <- (if n = 0 then Done (b, 0) else Fields b)

  let row t b cur text hi =
    let u = Builder.rows_done b in
    Builder.begin_row b;
    if t.has_vsize then begin
      if at_eol cur text hi then
        failwith "Graph_io.of_metis: missing vertex size";
      ignore (token_int cur text hi)
    end;
    if t.has_vwgt then begin
      if at_eol cur text hi then
        failwith "Graph_io.of_metis: missing vertex weight";
      Builder.set_vwgt b (token_int cur text hi)
    end;
    if t.has_ewgt then begin
      cur.pos <- Builder.plain_pairs b text cur.pos hi;
      while not (at_eol cur text hi) do
        (* A pair the fused loop did not take, token by token. *)
        let v = token_int cur text hi in
        if at_eol cur text hi then
          failwith
            (Printf.sprintf
               "Graph_io.of_metis: neighbour of node %d without a weight"
               (u + 1));
        Builder.mention b (v - 1) (token_int cur text hi);
        cur.pos <- Builder.plain_pairs b text cur.pos hi
      done
    end
    else
      while not (at_eol cur text hi) do
        Builder.mention b (token_int cur text hi - 1) 1
      done;
    Builder.end_row b;
    if Builder.rows_done b = b.Builder.n then t.phase <- Done (b, 0)

  (* Tokenize every complete line in [text.[lo .. hi - 1]], advancing
     the parse state. Blank lines and [%] comment lines are skipped. *)
  let process t text lo hi =
    let cur = { pos = lo } in
    while next_line cur text hi do
      match t.phase with
      | Header -> header t cur text hi
      | Fields b -> row t b cur text hi
      | Done (b, extra) ->
        (* Surplus line: count it for the message and skip to its
           end. *)
        t.phase <- Done (b, extra + 1);
        skip_to_eol cur text hi
    done

  let feed t s =
    if t.finished then invalid_arg "Graph_io.Rows.feed: already finished";
    let slen = String.length s in
    if slen > 0 then begin
      let lo =
        if Buffer.length t.pending = 0 then 0
        else
          match String.index_opt s '\n' with
          | None ->
            Buffer.add_string t.pending s;
            slen
          | Some i ->
            Buffer.add_substring t.pending s 0 (i + 1);
            let line = Buffer.contents t.pending in
            Buffer.clear t.pending;
            process t line 0 (String.length line);
            i + 1
      in
      if lo < slen then
        match String.rindex_from_opt s (slen - 1) '\n' with
        | Some j when j >= lo ->
          process t s lo (j + 1);
          if j + 1 < slen then
            Buffer.add_substring t.pending s (j + 1) (slen - j - 1)
        | _ -> Buffer.add_substring t.pending s lo (slen - lo)
    end

  let finish t =
    if t.finished then
      invalid_arg "Graph_io.Rows.finish: already finished";
    if Buffer.length t.pending > 0 then begin
      let line = Buffer.contents t.pending in
      Buffer.clear t.pending;
      process t line 0 (String.length line)
    end;
    t.finished <- true;
    match t.phase with
    | Header -> failwith "Graph_io.of_metis: empty input"
    | Fields b ->
      failwith
        (Printf.sprintf "Graph_io.of_metis: expected %d node lines, got %d"
           b.Builder.n (Builder.rows_done b))
    | Done (b, 0) -> Builder.finish b
    | Done (b, extra) ->
      failwith
        (Printf.sprintf "Graph_io.of_metis: expected %d node lines, got %d"
           b.Builder.n (b.Builder.n + extra))
end

let of_metis text =
  let r = Rows.create () in
  Rows.feed r text;
  Rows.finish r

let to_adjacency_matrix g =
  let n = Wgraph.n_nodes g in
  let b = Buffer.create 1024 in
  buf_add b (string_of_int n);
  Buffer.add_char b '\n';
  for u = 0 to n - 1 do
    if u > 0 then Buffer.add_char b ' ';
    buf_add b (string_of_int (Wgraph.node_weight g u))
  done;
  Buffer.add_char b '\n';
  let mat = Array.make_matrix n n 0 in
  Wgraph.iter_edges g (fun u v w ->
      mat.(u).(v) <- w;
      mat.(v).(u) <- w);
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if v > 0 then Buffer.add_char b ' ';
      buf_add b (string_of_int mat.(u).(v))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let of_adjacency_matrix text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | n_line :: vw_line :: rows -> (
    match ints_of_line n_line with
    | [ n ] ->
      let vwgt = Array.of_list (ints_of_line vw_line) in
      if Array.length vwgt <> n then
        failwith "Graph_io.of_adjacency_matrix: bad weight row";
      if List.length rows <> n then
        failwith "Graph_io.of_adjacency_matrix: bad row count";
      let mat =
        Array.of_list
          (List.map (fun row -> Array.of_list (ints_of_line row)) rows)
      in
      Array.iter
        (fun row ->
          if Array.length row <> n then
            failwith "Graph_io.of_adjacency_matrix: ragged row")
        mat;
      for u = 0 to n - 1 do
        if mat.(u).(u) <> 0 then
          failwith "Graph_io.of_adjacency_matrix: nonzero diagonal";
        for v = u + 1 to n - 1 do
          if mat.(u).(v) <> mat.(v).(u) then
            failwith "Graph_io.of_adjacency_matrix: asymmetric matrix"
        done
      done;
      failure_only ~reader:"Graph_io.of_adjacency_matrix" (fun () ->
          let el = Edge_list.create n in
          for u = 0 to n - 1 do
            for v = u + 1 to n - 1 do
              if mat.(u).(v) <> 0 then Edge_list.add el u v mat.(u).(v)
            done
          done;
          Wgraph.build ~vwgt el)
    | _ -> failwith "Graph_io.of_adjacency_matrix: bad size line")
  | _ -> failwith "Graph_io.of_adjacency_matrix: truncated input"

(* A small qualitative palette; parts beyond its length cycle. *)
let palette =
  [| "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#b07aa1"; "#76b7b2";
     "#edc948"; "#ff9da7"; "#9c755f"; "#bab0ac" |]

let to_dot ?partition ?(label = "") ?(weighted = true) g =
  let b = Buffer.create 2048 in
  buf_add b "graph g {\n";
  if label <> "" then buf_add b (Printf.sprintf "  label=%S;\n" label);
  buf_add b "  node [style=filled, fillcolor=white, shape=circle];\n";
  let max_w =
    let m = ref 1 in
    for u = 0 to Wgraph.n_nodes g - 1 do
      if Wgraph.node_weight g u > !m then m := Wgraph.node_weight g u
    done;
    !m
  in
  let emit_node u =
    let w = Wgraph.node_weight g u in
    (* Node radius proportional to weight, as in the paper's figures. *)
    let width = 0.4 +. (0.8 *. float_of_int w /. float_of_int max_w) in
    let lbl = if weighted then Printf.sprintf "%d\\nw=%d" u w
      else string_of_int u
    in
    let color =
      match partition with
      | None -> "white"
      | Some p -> palette.(p.(u) mod Array.length palette)
    in
    buf_add b
      (Printf.sprintf "    n%d [label=\"%s\", width=%.2f, fillcolor=\"%s\"];\n"
         u lbl width color)
  in
  (match partition with
  | None ->
    for u = 0 to Wgraph.n_nodes g - 1 do
      emit_node u
    done
  | Some p ->
    let k = Array.fold_left max 0 p + 1 in
    for part = 0 to k - 1 do
      buf_add b
        (Printf.sprintf "  subgraph cluster_%d {\n    label=\"FPGA %d\";\n"
           part part);
      for u = 0 to Wgraph.n_nodes g - 1 do
        if p.(u) = part then emit_node u
      done;
      buf_add b "  }\n"
    done);
  Wgraph.iter_edges g (fun u v w ->
      if weighted then
        buf_add b (Printf.sprintf "  n%d -- n%d [label=\"%d\"];\n" u v w)
      else buf_add b (Printf.sprintf "  n%d -- n%d;\n" u v));
  buf_add b "}\n";
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
