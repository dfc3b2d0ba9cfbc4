module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Sched = Aitf_parallel.Sched
module Fluid = Aitf_flowsim.Fluid
module Sampler = Aitf_flowsim.Sampler
module Series = Aitf_stats.Series
module Rate_meter = Aitf_stats.Rate_meter
module Json = Aitf_obs.Json
open Aitf_net
open Aitf_core

type t = { sched : Sched.t; sim : Sim.t; rng : Rng.t }

let create ?obs ?(shards = 1) ~seed () =
  let sched = Sched.create ?obs ~shards () in
  { sched; sim = Sched.global sched; rng = Rng.create ~seed }

(* --- data plane ------------------------------------------------------------ *)

type plane =
  | Packet of Network.t
  | Fluid of { eng : Fluid.t; probe_rng : Rng.t; probe_rate : float option }

let attach_tables ?defer eng gws =
  List.iter
    (fun gw ->
      Fluid.attach_table ?defer eng ~node:(Gateway.node gw) (Gateway.filters gw))
    gws

let fluid_plane w config eng =
  let r = config.Config.hybrid_probe_rate in
  Fluid
    {
      eng;
      probe_rng = Rng.split w.rng;
      probe_rate = (if r > 0. then Some r else None);
    }

let plane w config net gws =
  if config.Config.engine = Config.Hybrid then begin
    let eng = Fluid.create ~epoch:config.Config.hybrid_epoch net in
    attach_tables eng gws;
    fluid_plane w config eng
  end
  else Packet net

let engine = function Fluid f -> Some f.eng | Packet _ -> None

let probe ?sim plane agg =
  match plane with
  | Packet _ -> ()
  | Fluid f ->
    ignore
      (Sampler.attach ?rate:f.probe_rate ?sim ~rng:(Rng.split f.probe_rng)
         f.eng agg)

let source ?agent ?gate ?spoof ?src_base ?(n = 1) ?probe:p ?probe_sim plane
    ~flow_id ~rate ~dst ~attack ~start origin =
  match plane with
  | Packet net ->
    let gate =
      match (gate, agent) with
      | None, Some a -> Some (Host_agent.Attacker.gate a)
      | g, _ -> g
    in
    ignore
      (Traffic.cbr ?gate ?spoof ~start ~attack ~flow_id ~rate ~dst net origin);
    None
  | Fluid f ->
    let src_base = Option.value src_base ~default:origin.Node.addr in
    let agg =
      Fluid.add_aggregate f.eng ~flow_id ~origin ~src_base ~n ~rate ~dst
        ~attack ~start
    in
    Option.iter (Fluid_bridge.attach_attacker_strategy f.eng agg) agent;
    if Option.value p ~default:attack then probe ?sim:probe_sim plane agg;
    Some agg

let share ~sources ~rate ~pools j =
  let n = (sources / pools) + if j < sources mod pools then 1 else 0 in
  (n, rate *. float_of_int n /. float_of_int sources)

let received ?victim plane ~attack =
  match (plane, victim) with
  | Fluid f, _ -> Fluid.delivered_bits f.eng ~attack /. 8.
  | Packet _, Some v ->
    if attack then Host_agent.Victim.attack_bytes v
    else Host_agent.Victim.good_bytes v
  | Packet _, None -> invalid_arg "World.received: packet plane without a victim"

(* --- pools, sampling, running ---------------------------------------------- *)

let add_pools (topo : Aitf_topo.Chain.t) (spec : Aitf_topo.Chain.spec) ~bw
    pools =
  let open Aitf_topo.Chain in
  let gws = Array.of_list topo.attacker_gws in
  let nodes =
    List.mapi
      (fun j (name, prefix) ->
        let n =
          Network.add_node topo.net ~name
            ~addr:(Addr.of_octets 31 0 0 (j + 1))
            ~as_id:(5000 + j) Node.Host
        in
        n.Node.advertised <-
          [ (Addr.host_prefix n.Node.addr, Node.Global); (prefix, Node.Global) ];
        ignore
          (Network.connect topo.net
             gws.(j mod Array.length gws)
             n ~bandwidth:bw ~delay:spec.access_delay
             ~queue_capacity:spec.queue_capacity);
        n)
      pools
  in
  Network.compute_routes topo.net;
  Array.of_list nodes

let sample_victim_rate w plane ~meter ~period ~until =
  let series = Series.create ~name:"victim-attack-rate" () in
  let read =
    match plane with
    | Fluid f ->
      let vm = Fluid_bridge.victim_meter f.eng in
      fun t -> Fluid_bridge.victim_attack_rate vm ~now:t
    | Packet _ -> fun t -> 8. *. Rate_meter.rate meter ~now:t
  in
  let rec sample t =
    if t <= until then
      ignore
        (Sim.at w.sim t (fun () ->
             Series.add series ~time:t (read t);
             sample (t +. period)))
  in
  sample period;
  series

let start_metrics w ~interval =
  Option.map
    (fun reg -> Aitf_engine.Sampler.start ~interval w.sim reg)
    (Sim.obs w.sim).Aitf_obs.Obs.metrics

let run w ~until = Sched.run ~until w.sched
let events w = Sched.events_processed w.sched

let parallel_report w =
  let sched = w.sched in
  if Sched.shards sched <= 1 then None
  else begin
    let st = Sched.stats sched in
    let finite_or_inf x =
      if Float.is_finite x then Json.Float x else Json.String "inf"
    in
    let ints a = Json.List (Array.to_list (Array.map (fun e -> Json.Int e) a)) in
    let per_shard =
      Array.to_list
        (Array.mapi
           (fun i e -> Json.Obj [ ("shard", Json.Int i); ("events", Json.Int e) ])
           (Sched.shard_events sched))
    in
    let window (r : Sched.window_record) =
      Json.Obj
        [
          ("horizon", Json.Float r.Sched.w_horizon);
          ("stall_seconds", Json.Float r.Sched.w_stall);
          ("events", ints r.Sched.w_events);
          ("messages", Json.Int r.Sched.w_messages);
          ("deferred", Json.Int r.Sched.w_deferred);
        ]
    in
    let timeline =
      match Sched.window_log sched with
      | [] -> []
      | wl ->
        [
          ( "window_timeline",
            Json.Obj
              [
                ("dropped", Json.Int (Sched.window_log_dropped sched));
                ("points", Json.List (List.map window wl));
              ] );
        ]
    in
    Some
      (Json.Obj
         ([
            ("shards", Json.Int (Sched.shards sched));
            ("lookahead", finite_or_inf (Sched.lookahead sched));
            ("windows", Json.Int st.Sched.windows);
            ("global_batches", Json.Int st.Sched.global_batches);
            ("messages", Json.Int st.Sched.messages);
            ("deferred", Json.Int st.Sched.deferred);
            ("stall_seconds", Json.Float st.Sched.stall_seconds);
            ("global_events", Json.Int (Sim.events_processed w.sim));
            ("per_shard", Json.List per_shard);
          ]
         @ timeline))
  end
