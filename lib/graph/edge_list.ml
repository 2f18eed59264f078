(* Three parallel growable arrays: [src.(i)], [dst.(i)] and [wgt.(i)]
   for the [i]-th recorded edge, [count] of them live. *)
type t = {
  n : int;
  mutable src : int array;
  mutable dst : int array;
  mutable wgt : int array;
  mutable count : int;
}

let create n =
  if n < 0 then invalid_arg "Edge_list.create: negative node count";
  { n; src = [||]; dst = [||]; wgt = [||]; count = 0 }

let n_nodes t = t.n

let grow t =
  let cap = max 16 (2 * t.count) in
  let resize a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.count;
    b
  in
  t.src <- resize t.src;
  t.dst <- resize t.dst;
  t.wgt <- resize t.wgt

let add t u v w =
  if u < 0 || u >= t.n then invalid_arg "Edge_list.add: node u out of range";
  if v < 0 || v >= t.n then invalid_arg "Edge_list.add: node v out of range";
  if w < 0 then invalid_arg "Edge_list.add: negative weight";
  if t.count = Array.length t.src then grow t;
  let i = t.count in
  t.src.(i) <- u;
  t.dst.(i) <- v;
  t.wgt.(i) <- w;
  t.count <- i + 1

let add_all t l = List.iter (fun (u, v, w) -> add t u v w) l

let to_soa t =
  (Array.sub t.src 0 t.count, Array.sub t.dst 0 t.count,
   Array.sub t.wgt 0 t.count)
