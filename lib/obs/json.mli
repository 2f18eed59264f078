(** The one JSON module of the repository: every document it writes or
    reads goes through here — the daemon's newline-delimited protocol,
    the run report behind [--report-json], the bench snapshots and their
    comparator, and (through {!quote}) the trace exporters.

    The build has no JSON library dependency, so this is a small strict
    reader/printer for the subset those documents use: objects, arrays,
    strings with the common escapes, numbers, [true]/[false]/[null].
    Integers survive a round trip exactly (printed without a decimal
    point up to 2^53); other numbers print with [%.12g]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error (one request
    per line — framing is the caller's job). Arrays and objects nest at
    most 64 deep; deeper input is
    [Error "nesting deeper than 64 at byte P"]. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines — NDJSON-safe), valid input
    to {!parse}. Object fields print in the order given. *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer. *)

val quote : string -> string
(** [s] as a quoted JSON string literal: quote, backslash, [\n], [\r]
    and [\t] by name, other bytes below 0x20 as [\u00XX]. The one
    string escaper of every JSON the repository writes; {!to_string}
    quotes strings and keys the same way. *)

val add_int_array : Buffer.t -> int array -> unit
(** Append the array as a JSON array of integers, byte-identical to
    [to_string (Arr (List.map int (Array.to_list a)))] for entries
    within ±2^53 — without building that list. *)

val int : int -> t
(** [Num (float_of_int i)]. *)

(** Accessors; [None] on a type or key mismatch. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing key or non-object. *)

val to_int : t -> int option
(** Numbers with an integral value only. *)

val to_str : t -> string option
val to_arr : t -> t list option
