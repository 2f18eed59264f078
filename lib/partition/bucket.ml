(* Gain slots hold intrusive doubly linked lists. An occupancy bitmap,
   one bit per slot and [word_bits] slots per word, marks the non-empty
   slots, so finding the highest one skips 32 empty slots per read. *)

let word_bits = 32
let word_shift = 5

type t = {
  max_gain : int;
  heads : int array;  (** gain+max_gain -> first node or -1 *)
  occupied : int array;  (** bit [s land 31] of word [s lsr 5]: slot [s] non-empty *)
  next : int array;
  prev : int array;  (** prev node, or -(bucket index)-1 when first *)
  gains : int array;
  present : bool array;
  mutable cur_max : int;  (** upper bound on the highest non-empty bucket *)
  mutable count : int;
}

let create ~n ~max_gain =
  if n < 0 || max_gain < 0 then invalid_arg "Bucket.create";
  let slots = (2 * max_gain) + 1 in
  {
    max_gain;
    heads = Array.make slots (-1);
    occupied = Array.make ((slots + word_bits - 1) / word_bits) 0;
    next = Array.make (max n 1) (-1);
    prev = Array.make (max n 1) (-1);
    gains = Array.make (max n 1) 0;
    present = Array.make (max n 1) false;
    cur_max = 0;
    count = 0;
  }

let slot t g =
  if g < -t.max_gain || g > t.max_gain then
    invalid_arg "Bucket: gain out of range";
  g + t.max_gain

let flip_bit t s =
  let w = s lsr word_shift in
  t.occupied.(w) <- t.occupied.(w) lxor (1 lsl (s land (word_bits - 1)))

let insert t node g =
  if t.present.(node) then invalid_arg "Bucket.insert: already present";
  let s = slot t g in
  let head = t.heads.(s) in
  t.next.(node) <- head;
  t.prev.(node) <- -s - 1;
  if head >= 0 then t.prev.(head) <- node else flip_bit t s;
  t.heads.(s) <- node;
  t.gains.(node) <- g;
  t.present.(node) <- true;
  if s > t.cur_max then t.cur_max <- s;
  t.count <- t.count + 1

let remove t node =
  if not t.present.(node) then invalid_arg "Bucket.remove: absent";
  let nx = t.next.(node) and pv = t.prev.(node) in
  if pv >= 0 then t.next.(pv) <- nx
  else begin
    let s = -pv - 1 in
    t.heads.(s) <- nx;
    if nx < 0 then flip_bit t s
  end;
  if nx >= 0 then t.prev.(nx) <- pv;
  t.present.(node) <- false;
  t.count <- t.count - 1

let adjust t node g =
  (* Validate the new gain before touching the structure: a failed
     adjust must not leave the node removed. *)
  ignore (slot t g : int);
  remove t node;
  insert t node g

let mem t node = t.present.(node)

let gain t node =
  if not t.present.(node) then invalid_arg "Bucket.gain: absent";
  t.gains.(node)

(* Index of the highest set bit of [w], 0 < w < 2^32. *)
let top_bit w =
  let w = ref w and b = ref 0 in
  if !w lsr 16 <> 0 then begin w := !w lsr 16; b := 16 end;
  if !w lsr 8 <> 0 then begin w := !w lsr 8; b := !b + 8 end;
  if !w lsr 4 <> 0 then begin w := !w lsr 4; b := !b + 4 end;
  if !w lsr 2 <> 0 then begin w := !w lsr 2; b := !b + 2 end;
  if !w lsr 1 <> 0 then !b + 1 else !b

(* The highest non-empty slot, at most [cur_max]; the structure must not
   be empty. Every slot above [cur_max] is empty, so the word holding
   [cur_max] has no bit above it. *)
let highest t =
  let w = ref (t.cur_max lsr word_shift) in
  while t.occupied.(!w) = 0 do
    decr w
  done;
  (!w lsl word_shift) + top_bit t.occupied.(!w)

let peek_max t =
  if t.count = 0 then None
  else begin
    let s = highest t in
    t.cur_max <- s;
    let node = t.heads.(s) in
    Some (node, t.gains.(node))
  end

let pop_max t =
  match peek_max t with
  | None -> None
  | Some (node, g) ->
    remove t node;
    Some (node, g)

let cardinal t = t.count
let is_empty t = t.count = 0
let max_gain t = t.max_gain
let fits t ~n ~max_gain = n <= Array.length t.next && max_gain <= t.max_gain

(* Empties the non-empty slots from the highest down, until no node is
   left: the occupied words in that range plus the nodes left, never
   the whole capacity. *)
let clear t =
  while t.count > 0 do
    let s = highest t in
    let x = ref t.heads.(s) in
    while !x >= 0 do
      t.present.(!x) <- false;
      t.count <- t.count - 1;
      x := t.next.(!x)
    done;
    t.heads.(s) <- -1;
    flip_bit t s;
    t.cur_max <- s
  done;
  t.cur_max <- 0
