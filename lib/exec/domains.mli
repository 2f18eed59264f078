(** Shared domain lifecycle for the execution backends.

    [Pool] and [Worker_pool] spawn their domains through this module so
    that the spawn/join idiom lives in one place. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    budget shared by every backend. *)

val spawn_workers : int -> (int -> unit) -> unit Domain.t array
(** [spawn_workers count body] spawns [count] domains, each running
    [body i]. *)

val join_all : unit Domain.t array -> unit
