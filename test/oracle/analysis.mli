(** Static performance model of a mapped process network.

    Lower-bounds the makespan the cycle-level simulator can possibly
    achieve, combining:

    - {b process demand} — a process fires at most once per cycle, so [I]
      firings need at least [I] cycles;
    - {b dependency chains} — on a channel carrying at least one token the
      consumer's last firing consumes the producer's last token (the final
      shares are always positive), so the consumer cannot finish before
      the producer finishes plus one cycle: completion times obey the
      longest-path recurrence
      [finish p >= max(I_p, max over producers q (finish q + 1))];
    - {b link demand} — a physical link moves at most [bmax] data units
      per cycle, so routed traffic [T] needs at least [ceil (T / bmax)]
      cycles.

    The bound is valid for any arbitration, FIFO capacity and firing
    discipline — which makes it the test oracle for {!Sim}: simulated
    cycles can never undercut it, and on an unconstrained chain it is
    exact. *)

open Ppnpart_ppn
open Ppnpart_fpga

val depth : Ppn.t -> int
(** Longest path through the channel DAG in process hops (counting nodes),
    over channels carrying at least one token, self-channels ignored — the
    network's pipeline-fill distance. 0 for an empty network.
    @raise Invalid_argument on a cyclic network. *)

val makespan_lower_bound : Platform.t -> Ppn.t -> assignment:int array -> int
(** Max of the dependency-chain completion bound and every routed link's
    traffic demand.
    @raise Invalid_argument on a cyclic network or a bad assignment. *)

val efficiency :
  Platform.t -> Ppn.t -> assignment:int array -> Sim.result -> float
(** [makespan_lower_bound /. achieved cycles], in (0, 1]: 1.0 means the
    mapping runs as fast as any schedule of this network possibly could on
    this platform. *)
