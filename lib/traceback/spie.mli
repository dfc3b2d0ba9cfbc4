(** SPIE: hash-based IP traceback ([SPS+01]).

    Every participating border router keeps bloom digests of the packets it
    forwarded, organised as a small ring of time windows so queries can ask
    "did you see this packet recently?". Path reconstruction starts at the
    querying gateway and walks upstream, hop by hop, towards whichever
    digest-positive neighbor continues the trail.

    The reconstruction also reports a latency estimate — the query round
    trips the real system would pay — which AITF must budget inside Ttmp. *)

open Aitf_net

type store
(** One router's digest history. *)

type t
(** A deployment: the stores of all participating routers. *)

val deploy :
  ?bits:int ->
  ?hashes:int ->
  ?window:float ->
  ?windows:int ->
  Network.t ->
  t
(** Install digest recording (a forwarding hook) on every border router of
    the network. Defaults: 2^17 bits, 4 hashes, 1 s windows, 8 windows
    (≈ 8 s of memory). Must be called before traffic starts. *)

val digest : Packet.t -> string
(** The digest key: the invariant header fields (id, true header source,
    destination, protocol, size) — excludes mutable fields like TTL, the
    route record and marks, as SPIE digests must. *)

val store_of : t -> Node.t -> store option
val record : t -> Node.t -> Packet.t -> unit
(** Manually record (the deployed hook does this automatically). *)

val seen : store -> now:float -> Packet.t -> bool
(** Did this router digest the packet within its remembered windows? *)

val reconstruct : t -> from:Node.t -> Packet.t -> Addr.t list * float
(** [reconstruct t ~from pkt] walks upstream from [from] and returns the
    attack path in attacker-first order (the same convention as
    [Packet.route_record]), excluding [from] itself, together with the
    estimated query latency in seconds (one round trip per traversed link).
    An empty list means no upstream router remembers the packet. *)

val queries : t -> int
(** Total membership queries issued by reconstructions (accuracy/cost
    reporting). *)
