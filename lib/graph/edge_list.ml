type t = {
  n : int;
  mutable edges : (int * int * int) list;
  mutable count : int;
}

let create n =
  if n < 0 then invalid_arg "Edge_list.create: negative node count";
  { n; edges = []; count = 0 }

let n_nodes t = t.n

let add t u v w =
  if u < 0 || u >= t.n then invalid_arg "Edge_list.add: node u out of range";
  if v < 0 || v >= t.n then invalid_arg "Edge_list.add: node v out of range";
  if w < 0 then invalid_arg "Edge_list.add: negative weight";
  t.edges <- (u, v, w) :: t.edges;
  t.count <- t.count + 1

let add_all t l = List.iter (fun (u, v, w) -> add t u v w) l

let normalized t =
  let canon (u, v, w) = if u <= v then (u, v, w) else (v, u, w) in
  let arr = Array.of_list (List.rev_map canon t.edges) in
  Array.sort compare arr;
  (* Single pass merging runs of equal (u, v) pairs, skipping self loops.
     [arr] is scanned in ascending order and runs are emitted as they
     close, so the output is already sorted — no second sort needed. *)
  let n = Array.length arr in
  let out = Array.make n (0, 0, 0) in
  let filled = ref 0 in
  let i = ref 0 in
  while !i < n do
    let u, v, w = arr.(!i) in
    let acc = ref w in
    incr i;
    while
      !i < n
      &&
      let u', v', _ = arr.(!i) in
      u' = u && v' = v
    do
      let _, _, w' = arr.(!i) in
      acc := !acc + w';
      incr i
    done;
    if u <> v then begin
      out.(!filled) <- (u, v, !acc);
      incr filled
    end
  done;
  if !filled = n then out else Array.sub out 0 !filled
