(* GC deltas around a phase.

   On OCaml 5.x, [Gc.quick_stat]'s allocation counters are only flushed
   at collection boundaries — between collections they read as stale
   zeros — so word counts come from the live primitives instead:
   [Gc.minor_words ()] (includes the current young-pointer delta, exact
   at any moment) and the major/promoted accumulators of
   [Gc.counters ()] (live for direct major-heap allocations).
   [Gc.quick_stat] still supplies collection counts and the major heap
   size, which only move at collection boundaries anyway.

   The measurement brackets allocate a constant few words themselves
   (boxed floats, the stat records) inside the measured window; that
   self-cost is calibrated once (minimum over a few empty runs) and
   subtracted, clamping at zero. That makes idle phases report exactly
   zero and keeps reported minor-word counts a pure function of what
   the phase allocated. *)

type delta = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

(* The minor-words reads sit innermost so the window excludes the other
   brackets' own allocations as far as possible; the rest is a constant
   handled by calibration. *)
let raw f =
  let q1 = Gc.quick_stat () in
  let _, p1, j1 = Gc.counters () in
  let m1 = Gc.minor_words () in
  let r = f () in
  let m2 = Gc.minor_words () in
  let _, p2, j2 = Gc.counters () in
  let q2 = Gc.quick_stat () in
  ( r,
    {
      minor_words = int_of_float (m2 -. m1);
      promoted_words = int_of_float (p2 -. p1);
      major_words = int_of_float (j2 -. j1);
      minor_collections = q2.Gc.minor_collections - q1.Gc.minor_collections;
      major_collections = q2.Gc.major_collections - q1.Gc.major_collections;
      heap_words = q2.Gc.heap_words - q1.Gc.heap_words;
    } )

let calibrate () =
  let minor = ref max_int and major = ref max_int in
  for _ = 1 to 16 do
    let (), d = raw (fun () -> ()) in
    if d.minor_words < !minor then minor := d.minor_words;
    if d.major_words < !major then major := d.major_words
  done;
  (!minor, !major)

let self_cost = lazy (calibrate ())

let clamp v = if v < 0 then 0 else v

let measure f =
  let self_minor, self_major = Lazy.force self_cost in
  let r, d = raw f in
  ( r,
    {
      minor_words = clamp (d.minor_words - self_minor);
      promoted_words = clamp d.promoted_words;
      major_words = clamp (d.major_words - self_major);
      minor_collections = clamp d.minor_collections;
      major_collections = clamp d.major_collections;
      heap_words = clamp d.heap_words;
    } )

let heap_words () =
  let s = Gc.quick_stat () in
  s.Gc.heap_words
