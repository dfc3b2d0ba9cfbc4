(** Protecting legacy (non-AITF) hosts.

    An AITF network "has a filtering contract with each of its end-hosts" —
    but a deployment will always contain hosts that speak no AITF. This
    module lets their gateway stand in for them, running a victim agent
    ({!Host_agent.Victim.proxy}: the same flow log, detection, requests and
    retransmissions) fed from a transit hook:

    - it watches transit traffic towards the protected prefixes (scenario
      ground truth plus a Td delay, instant re-detection of logged labels);
    - it originates the filtering requests itself, self-policed to the
      contract rate, to the gateway's own AITF agent;
    - being on the path, it legitimately answers the 3-way-handshake
      queries that attacker-side gateways address to the silent legacy
      victim (Section II-E's verification only proves the confirmer is
      on-path, which the gateway is), and consumes those queries so they
      never confuse the host.

    Attach it to the same border router as the {!Gateway}. The node's local
    delivery stays the gateway's. *)

open Aitf_net
open Aitf_filter

type t

val attach :
  ?td:float ->
  protect:Addr.prefix list ->
  gateway:Gateway.t ->
  Network.t ->
  t
(** Watch traffic through the gateway's node towards [protect] and defend
    it. [td] is the first-detection delay (default 0.1 s). *)

val requests_sent : t -> int
val queries_answered : t -> int
val flows_detected : t -> int

val protects : t -> Addr.t -> bool
(** Is this destination covered? *)

val watching : t -> Flow_label.t -> bool
(** Was a request for this flow sent less than T ago? *)
