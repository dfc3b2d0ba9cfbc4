(** Traffic generation.

    Sources inject packets from a node towards a destination. Every source
    consults an optional {e gate} before each packet — the hook through
    which a compliant attacker host's own filters (see
    {!Aitf_core.Host_agent.Attacker.gate}) or an on-off strategy throttle
    it. Sources can spoof their header source address per packet and mark
    their packets as attack traffic (scenario ground truth for the victim's
    detector).

    Two arrival processes are provided: constant bit rate and Poisson. *)

open Aitf_net
open Aitf_filter

type t

val cbr :
  ?gate:(Packet.t -> bool) ->
  ?spoof:(unit -> Addr.t option) ->
  ?start:float ->
  ?stop:float ->
  ?pkt_size:int ->
  ?attack:bool ->
  flow_id:int ->
  rate:float ->
  dst:Addr.t ->
  Network.t ->
  Node.t ->
  t
(** Constant bit rate: [rate] bits/s in [pkt_size]-byte packets (default
    1000 B), from [start] (default 0) until [stop] (default: forever).
    [attack] (default false) marks packets as undesired. *)

val poisson :
  ?gate:(Packet.t -> bool) ->
  ?spoof:(unit -> Addr.t option) ->
  ?start:float ->
  ?stop:float ->
  ?pkt_size:int ->
  ?attack:bool ->
  rng:Aitf_engine.Rng.t ->
  flow_id:int ->
  rate:float ->
  dst:Addr.t ->
  Network.t ->
  Node.t ->
  t
(** Poisson arrivals with mean rate [rate] bits/s. *)

val halt : t -> unit
(** Stop generating permanently, cancelling the pending emission event. *)

val flow_id : t -> int
val sent_packets : t -> int
val sent_bytes : t -> int

val gated_packets : t -> int
(** Packets the gate suppressed. *)

val count_delivered : Node.t -> attack:bool -> float
(** [count_delivered node] starts counting the data bytes delivered to
    [node], by wrapping its current local delivery; the returned reader
    gives the attack or the legitimate total so far. An agent installed on
    the node later wraps this in turn and may swallow data before it is
    counted. *)

val label : t -> src:Addr.t -> Flow_label.t
(** The flow label this source's packets carry, given the header source it
    uses ([src] is the node address unless spoofing). *)
