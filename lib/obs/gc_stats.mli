(** Allocation and GC telemetry for phases.

    {!measure} brackets a thunk with [Gc.quick_stat] (cheap counter
    reads, no heap walk) and reports the delta. The self-cost of the
    measurement itself (the stat records allocated inside the window) is
    calibrated once and subtracted, so an idle phase reports an
    all-zero delta and minor-word counts reflect only what the phase
    allocated — deterministic for a deterministic phase. All fields are
    clamped non-negative. *)

type delta = {
  minor_words : int;  (** words allocated in the minor heap *)
  promoted_words : int;  (** words promoted minor -> major *)
  major_words : int;  (** words allocated directly in the major heap *)
  minor_collections : int;
  major_collections : int;
  heap_words : int;  (** major heap growth during the phase *)
}

val measure : (unit -> 'a) -> 'a * delta
(** Run the thunk and report its GC delta, self-cost-corrected and
    clamped non-negative. *)

val heap_words : unit -> int
(** Current major heap size in words ([Gc.quick_stat]). *)
