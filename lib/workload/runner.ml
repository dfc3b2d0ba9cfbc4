module Json = Aitf_obs.Json
module Series = Aitf_stats.Series
open Aitf_core

type _ spec =
  | Chain : Scenarios.chain_params -> Scenarios.chain_result spec
  | Flood : Scenarios.flood_params -> Scenarios.flood_result spec
  | Swarm : Scenarios.swarm_params -> Scenarios.swarm_result spec
  | Internet : As_scenario.params -> As_scenario.result spec
  | Replay : Config.t * Replay.trace -> Replay.result spec

type packed = Spec : 'r spec -> packed

type 'r outcome = {
  result : 'r;
  events : int;
  victim_rate : Series.t;
  fields : (string * Json.t) list;
  meta : (string * Json.t) list;
  sampler : Aitf_engine.Sampler.t option;
  parallel : Json.t option;
}

let duration : type r. r spec -> float = function
  | Chain p -> p.Scenarios.duration
  | Flood p -> p.Scenarios.flood_duration
  | Swarm p -> p.Scenarios.swarm_duration
  | Internet p -> p.As_scenario.as_duration
  | Replay (_, trace) -> trace.Replay.tr_duration

let fl x = Json.Float x
let it n = Json.Int n
let outcome ?sampler ?parallel ~events ~victim_rate ~fields ~meta result =
  { result; events; victim_rate; fields; meta; sampler; parallel }

let run : type r. ?obs:Aitf_obs.Obs.t -> r spec -> r outcome =
 fun ?obs spec ->
  match spec with
  | Chain p ->
    let open Scenarios in
    let r = run_chain ?obs p in
    let gws =
      r.deployed.Aitf_topo.Chain.victim_gateways
      @ r.deployed.Aitf_topo.Chain.attacker_gateways
    in
    outcome r ?sampler:r.sampler ~events:r.events_processed
      ~victim_rate:r.victim_rate
      ~fields:
        [
          ("attack_offered_bytes", fl r.attack_offered_bytes);
          ("attack_received_bytes", fl r.attack_received_bytes);
          ("good_offered_bytes", fl r.good_offered_bytes);
          ("good_received_bytes", fl r.good_received_bytes);
          ("r_measured", fl r.r_measured);
          ("escalations", it r.escalations);
          ("requests_sent", it r.requests_sent);
          ("filters", it (filter_installs gws));
          ("faults_injected", it r.faults_injected);
          ("collateral_packets", it r.collateral_packets);
          ("events", it r.events_processed);
        ]
      ~meta:
        [
          ("scenario", Json.String "chain");
          ("seed", it p.seed);
          ("duration", fl p.duration);
          ("attack_rate", fl p.attack_rate);
          ("t_filter", fl p.config.Config.t_filter);
          ("t_tmp", fl p.config.Config.t_tmp);
          ("non_coop", it p.n_non_coop_gws);
        ]
  | Flood p ->
    let open Scenarios in
    let r = run_flood ?obs p in
    outcome r ?sampler:r.flood_sampler ~events:r.flood_events
      ~victim_rate:(Series.create ~name:"victim-attack-rate" ())
      ~fields:
        [
          ("attack_received_bytes", fl r.flood_attack_received_bytes);
          ("good_offered_bytes", fl r.legit_offered_bytes);
          ("good_received_bytes", fl r.legit_received_bytes);
          ("zombies_placed", it r.zombies_placed);
          ("leaf_filters", it r.leaf_filters);
          ("isp_filters", it r.isp_filters);
          ("events", it r.flood_events);
        ]
      ~meta:
        [
          ("scenario", Json.String "flood");
          ("seed", it p.flood_seed);
          ("duration", fl p.flood_duration);
          ("zombies", it p.zombies);
          ("zombie_rate", fl p.zombie_rate);
          ("with_aitf", Json.Bool p.with_aitf);
        ]
  | Swarm p ->
    let open Scenarios in
    let r = run_swarm ?obs p in
    outcome r ?sampler:r.swarm_sampler ~events:r.swarm_events
      ~victim_rate:r.swarm_victim_rate
      ~fields:
        [
          ("attack_received_bytes", fl r.swarm_attack_received_bytes);
          ("good_offered_bytes", fl r.swarm_good_offered_bytes);
          ("good_received_bytes", fl r.swarm_good_received_bytes);
          ("requests_sent", it r.swarm_requests_sent);
          ("filters", it r.swarm_filters);
          ("absorbed", it r.swarm_absorbed);
          ("events", it r.swarm_events);
        ]
      ~meta:
        [
          ("scenario", Json.String "swarm");
          ("seed", it p.swarm_seed);
          ("duration", fl p.swarm_duration);
          ("sources", it p.swarm_sources);
          ("pools", it p.swarm_pools);
          ("attack_rate", fl p.swarm_attack_rate);
        ]
  | Internet p ->
    let open As_scenario in
    let r = run ?obs p in
    let contract =
      match verdict r with
      | Some v ->
        let n l = it (List.length l) in
        [
          ("byzantine", n v.v_byzantine);
          ("flagged", n v.v_flagged);
          ("missed", n v.v_missed);
          ("false_positives", n v.v_false_positives);
          ("receipts_verified", it v.v_receipts_verified);
          ("receipts_rejected", it v.v_receipts_rejected);
          ("failovers", it r.r_failovers);
        ]
      | None -> []
    in
    outcome r ?parallel:r.r_parallel ~events:r.r_events
      ~victim_rate:r.r_victim_rate
      ~fields:
        ([
           ("attack_received_bytes", fl r.r_attack_received_bytes);
           ("good_offered_bytes", fl r.r_good_offered_bytes);
           ("good_received_bytes", fl r.r_good_received_bytes);
           ("collateral_fraction", fl r.r_collateral_fraction);
           ( "time_to_filter",
             match r.r_time_to_filter with Some t -> fl t | None -> Json.Null );
           ("slots_peak", it r.r_slots_peak);
           ("filters_installed", it r.r_filters_installed);
           ("requests_sent", it r.r_requests_sent);
           ("reports", it r.r_reports);
           ("absorbed", it r.r_absorbed);
           ("events", it r.r_events);
         ]
        @ contract)
      ~meta:
        [
          ("scenario", Json.String "internet");
          ( "placement",
            Json.String
              (Placement.policy_to_string p.as_config.Config.placement) );
          ("seed", it p.as_seed);
          ("duration", fl p.as_duration);
          ("domains", it p.as_spec.Aitf_topo.As_graph.domains);
          ("sources", it p.as_sources);
          ("attack_rate", fl p.as_attack_rate);
          ("contracts", Json.Bool p.as_contracts);
          ("byzantine_fraction", fl p.as_byzantine_fraction);
          ("shards", it p.as_shards);
        ]
  | Replay (config, trace) ->
    let open Replay in
    let r = run ?obs ~config trace in
    outcome r ~events:r.rr_events ~victim_rate:r.rr_victim_rate
      ~fields:
        [
          ("trace", Json.String (to_string trace));
          ("attack_offered_bytes", fl r.rr_attack_offered_bytes);
          ("attack_received_bytes", fl r.rr_attack_received_bytes);
          ("good_offered_bytes", fl r.rr_good_offered_bytes);
          ("good_received_bytes", fl r.rr_good_received_bytes);
          ("requests_sent", it r.rr_requests_sent);
          ("filters", it r.rr_filters);
          ("absorbed", it r.rr_absorbed);
          ("events", it r.rr_events);
        ]
      ~meta:
        [
          ("scenario", Json.String "replay");
          ("seed", it trace.tr_seed);
          ("duration", fl trace.tr_duration);
        ]
