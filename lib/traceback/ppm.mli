(** Probabilistic packet marking ([SWKA00], edge sampling).

    Each router, with probability [p], starts a fresh edge mark in the
    packet; otherwise it completes a just-started edge and increments the
    edge's distance. A victim collecting enough marked packets recovers the
    path one edge per distance value. Unlike the route record, this costs
    the victim convergence time — the trade AITF's Ttmp analysis cares
    about. *)

open Aitf_net

val hook : p:float -> rng:Aitf_engine.Rng.t -> Node.t -> Packet.t -> Node.hook_verdict
(** Marking hook with marking probability [p]. *)

val install : p:float -> rng:Aitf_engine.Rng.t -> Node.t -> unit
(** Attach a marking hook to a border router. *)

module Collector : sig
  (** Victim-side mark collection and path reconstruction. *)

  type t

  val create : unit -> t

  val observe : t -> Packet.t -> unit
  (** Feed every received packet of the suspect flow. *)

  val samples : t -> int
  (** Marked packets seen so far. *)

  val reconstruct : t -> Addr.t list option
  (** The path in attacker-first order (the order of
      [Packet.route_record]), or [None] until the edges collected so far
      chain contiguously from distance 0 upward. For each distance the most
      frequently seen edge is trusted, making the reconstruction robust to
      occasional mark spoofing. *)

  val expected_samples : p:float -> hops:int -> float
  (** Classic bound on the expected number of marked packets needed:
      ln(hops) / (p (1-p)^{hops-1}). *)
end
