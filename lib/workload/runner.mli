(** One scenario runner: a spec in, an outcome out.

    A {!spec} names a scenario family and carries that family's own
    parameters; {!run} drives it on its {!World} and returns the
    family's result record together with everything a caller needs to
    observe, report or serialize the run without knowing which family it
    was: the event count, the victim-rate series, the canonical outcome
    fields (the [outcome] object of a golden matrix cell), the run-report
    metadata, the metrics sampler and the [parallel] report section.
    The golden matrix, every [aitf_sim] scenario subcommand and the
    Internet-scale bench tables all go through here. *)

open Aitf_core

type _ spec =
  | Chain : Scenarios.chain_params -> Scenarios.chain_result spec
      (** the single-attacker Figure-1 chain *)
  | Flood : Scenarios.flood_params -> Scenarios.flood_result spec
      (** a zombie army against a server in the provider hierarchy *)
  | Swarm : Scenarios.swarm_params -> Scenarios.swarm_result spec
      (** a spoofed-source swarm over fluid pools *)
  | Internet : As_scenario.params -> As_scenario.result spec
      (** the generated AS-level Internet *)
  | Replay : Config.t * Replay.trace -> Replay.result spec
      (** a replay trace on the chain, on the engine the config selects *)

type packed = Spec : 'r spec -> packed
(** A spec of any family, for lists that mix them. *)

type 'r outcome = {
  result : 'r;  (** the family's own result record *)
  events : int;  (** discrete events executed *)
  victim_rate : Aitf_stats.Series.t;
      (** attack bits/s at the victim over time (empty for the flood,
          which does not sample it) *)
  fields : (string * Aitf_obs.Json.t) list;
      (** canonical outcome scalars, in serialization order; keys are
          shared across families where the quantity is the same
          ([attack_received_bytes], [good_received_bytes], ...) *)
  meta : (string * Aitf_obs.Json.t) list;
      (** the run report's [meta] object: scenario name and the
          parameters that identify the run *)
  sampler : Aitf_engine.Sampler.t option;
      (** the metrics sampler, when the family starts one and the world
          has a registry *)
  parallel : Aitf_obs.Json.t option;
      (** the run report's [parallel] section (sharded runs only) *)
}

val run : ?obs:Aitf_obs.Obs.t -> 'r spec -> 'r outcome
(** Run the scenario, observed by [obs] (default: nothing observed). *)

val duration : 'r spec -> float
(** The simulated horizon the spec runs to. *)
