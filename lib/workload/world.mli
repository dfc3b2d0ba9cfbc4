(** The world harness under every scenario family.

    Each family ({!Scenarios.run_chain}, {!Scenarios.run_flood},
    {!Scenarios.run_swarm}, {!As_scenario.run}, {!Replay.run}) builds its
    own topology, deployment and adversaries, and leaves the steps they
    share to this module: the scheduler the run executes on, the data
    plane (packet sources, or a fluid engine mirroring the gateways'
    filter tables with probe samplers feeding the control plane),
    spoofed-source pool nodes, the victim-rate series, the metrics
    sampler and the received-byte readback.

    Only {!plane}/{!fluid_plane} (one split of the world's stream) and
    each probe sampler attached (one split of that split) draw
    randomness, so a family's RNG split order is the order in which it
    calls them among its own draws. *)

open Aitf_net
open Aitf_core
module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Sched = Aitf_parallel.Sched
module Fluid = Aitf_flowsim.Fluid

type t = {
  sched : Sched.t;
  sim : Sim.t;  (** the scheduler's global world *)
  rng : Rng.t;  (** the run's root stream *)
}

val create : ?obs:Aitf_obs.Obs.t -> ?shards:int -> seed:int -> unit -> t
(** A world observed by [obs] on [shards] event-queue shards (default 1:
    a single {!Sim.t}, run exactly as [Sim.run] would).
    @raise Invalid_argument if [shards < 1]. *)

(** {1 Data plane} *)

type plane =
  | Packet of Network.t  (** discrete packets end to end *)
  | Fluid of {
      eng : Fluid.t;
      probe_rng : Rng.t;  (** split once per probe sampler *)
      probe_rate : float option;  (** [None] derives it per aggregate *)
    }

val plane : t -> Config.t -> Network.t -> Gateway.t list -> plane
(** Under {!Config.Hybrid}: a fluid engine at the config's epoch,
    mirroring the gateways' filter tables, with its probe stream split off
    now. Otherwise {!Packet} (no randomness drawn). *)

val attach_tables :
  ?defer:((unit -> unit) -> unit) -> Fluid.t -> Gateway.t list -> unit
(** Mirror the gateways' filter tables into a fluid engine. *)

val fluid_plane : t -> Config.t -> Fluid.t -> plane
(** The fluid plane over an engine built by the caller; splits the probe
    stream off now. *)

val engine : plane -> Fluid.t option

val source :
  ?agent:Host_agent.Attacker.t ->
  ?gate:(Packet.t -> bool) ->
  ?spoof:(unit -> Addr.t option) ->
  ?src_base:Addr.t ->
  ?n:int ->
  ?probe:bool ->
  ?probe_sim:Sim.t ->
  plane ->
  flow_id:int ->
  rate:float ->
  dst:Addr.t ->
  attack:bool ->
  start:float ->
  Node.t ->
  Fluid.agg option
(** One source at the given origin node. Packet plane: a CBR flow gated
    by [gate] (default [agent]'s strategy gate) and spoofing through
    [spoof]. Fluid plane: an aggregate of [n] (default 1) sources from
    [src_base] (default the origin's address) with [agent]'s strategy
    mirrored onto it and, when [probe] (default [attack]), a probe
    sampler on [probe_sim]; returned. *)

val probe : ?sim:Sim.t -> plane -> Fluid.agg -> unit
(** Attach a probe sampler to an aggregate. *)

val share : sources:int -> rate:float -> pools:int -> int -> int * float
(** Pool [j]'s part of [sources] spread as evenly as possible over
    [pools] pools (the first [sources mod pools] get one more), and its
    pro-rata part of the total [rate]. *)

val received : ?victim:Host_agent.Victim.t -> plane -> attack:bool -> float
(** Attack or legitimate bytes delivered: the fluid engine's count, or the
    packet victim agent's.
    @raise Invalid_argument on {!Packet} without [victim]. *)

(** {1 Pools, sampling, running} *)

val add_pools :
  Aitf_topo.Chain.t -> Aitf_topo.Chain.spec -> bw:float ->
  (string * Addr.prefix) list -> Node.t array
(** Spoofed-source pool nodes on the Figure-1 chain: pool [j] is host
    [31.0.0.(j+1)], named and advertising the prefix given, hanging off
    the attacker-side gateways round-robin on a [bw] uplink with [spec]'s
    access delay and queue. Recomputes routes. *)

val sample_victim_rate :
  t -> plane -> meter:Aitf_stats.Rate_meter.t -> period:float ->
  until:float -> Aitf_stats.Series.t
(** Every [period] up to [until], on the global world: attack bits/s at
    the victim — the packet victim's [meter], or the fluid delivery
    pushed through the same 1-second window. *)

val start_metrics : t -> interval:float -> Aitf_engine.Sampler.t option
(** The metrics sampler, iff the world's observer context has a
    registry. *)

val run : t -> until:float -> unit

val events : t -> int
(** Events executed across every world of the run. *)

val parallel_report : t -> Aitf_obs.Json.t option
(** The run report's ["parallel"] section (shard count, lookahead,
    synchronization counters, per-shard events, the window timeline when
    logged); [None] with one shard. *)
