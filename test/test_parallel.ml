(* Parallel engine: 1-shard bit-identity against the sequential engine,
   conservative message ordering under random shard topologies,
   multi-shard determinism and 1-vs-N agreement, zero-lookahead
   rejection, per-world profiler isolation, and observability composing
   with shards. *)

module Sim = Aitf_engine.Sim
module Sched = Aitf_parallel.Sched
module Series = Aitf_stats.Series
module Scenarios = Aitf_workload.Scenarios
module As_scenario = Aitf_workload.As_scenario
module As_graph = Aitf_topo.As_graph
module Config = Aitf_core.Config

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- 1-shard bit-identity against the plain engine ------------------------ *)

(* A 1-shard scheduler must replay a plain [Sim.t] exactly. Each case
   builds one scenario family's world twice, on a fresh [Sim.t] run by
   [Sim.run] and on [Sched.global] of a 1-shard scheduler run by
   [Sched.run], and compares byte counters, control-plane counters, the
   event count and (where the family samples it) the victim-rate series,
   point for point. Every scenario family runs on a 1-shard scheduler by
   default, so this is the equivalence they all rest on. *)

module Chain = Aitf_topo.Chain
module Hierarchy = Aitf_topo.Hierarchy
module Host_agent = Aitf_core.Host_agent
module Traffic = Aitf_workload.Traffic
module Fluid = Aitf_flowsim.Fluid
module Rng = Aitf_engine.Rng

(* [build sim] sets a world up on [sim] and returns its fingerprint
   reader; the pair is (plain-Sim run, 1-shard-Sched run). *)
let replay_on_both ~until build =
  let sim = Sim.create () in
  let read = build sim in
  Sim.run ~until sim;
  let plain = (read (), Sim.events_processed sim) in
  let sched = Sched.create ~shards:1 () in
  let read = build (Sched.global sched) in
  Sched.run ~until sched;
  let sharded = (read (), Sched.events_processed sched) in
  (plain, sharded)

(* Every 0.1 s up to 5 s, on [sim], push [read t] onto the series. *)
let sample_every sim read =
  let points = ref [] in
  let rec sample t =
    if t <= 5. then
      ignore
        (Sim.at sim t (fun () ->
             points := (t, read t) :: !points;
             sample (t +. 0.1)))
  in
  sample 0.1;
  fun () -> List.rev !points

(* The Figure-1 chain: one attacker, a bystander, packet plane. *)
let chain_world sim =
  let rng = Rng.create ~seed:42 in
  let topo = Chain.build sim Chain.default_spec in
  let d = Chain.deploy ~victim_td:0.1 ~config:Config.default ~rng topo in
  let net = topo.Chain.net and dst = topo.Chain.victim.Aitf_net.Node.addr in
  ignore
    (Traffic.cbr
       ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
       ~start:1. ~attack:true ~flow_id:1 ~rate:1e6 ~dst net
       topo.Chain.attacker);
  ignore (Traffic.cbr ~flow_id:2 ~rate:2e5 ~dst net topo.Chain.bystander);
  let victim = d.Chain.victim_agent in
  let meter = Host_agent.Victim.attack_meter victim in
  let points =
    sample_every sim (fun t -> Aitf_stats.Rate_meter.rate meter ~now:t)
  in
  fun () ->
    ( Host_agent.Victim.attack_bytes victim,
      Host_agent.Victim.good_bytes victim,
      Scenarios.counter_total d.Chain.victim_gateways "escalated",
      Host_agent.Victim.requests_sent victim,
      points () )

(* A zombie flood on the provider hierarchy: six non-complying zombies in
   the two remote ISPs, one legitimate client next to the victim. *)
let flood_world sim =
  let config = Config.with_timescale Config.default 0.1 in
  let t =
    Hierarchy.build sim
      {
        Hierarchy.default_spec with
        Hierarchy.isps = 3;
        nets_per_isp = 3;
        hosts_per_net = 3;
      }
  in
  let d = Hierarchy.deploy ~config ~rng:(Rng.create ~seed:42) t in
  let victim =
    Hierarchy.attach_victim ~td:0.1 d ~config ~isp:0 ~net:0 ~host:0
  in
  let dst = (Hierarchy.host t ~isp:0 ~net:0 ~host:0).Aitf_net.Node.addr in
  let net = t.Hierarchy.net in
  ignore
    (Traffic.cbr ~flow_id:2001 ~rate:2e5 ~dst net
       (Hierarchy.host t ~isp:0 ~net:0 ~host:1));
  for i = 0 to 5 do
    let isp = 1 + (i mod 2) and n = i / 2 in
    let a =
      Hierarchy.attach_attacker ~strategy:Aitf_core.Policy.Ignores d ~config
        ~isp ~net:n ~host:0
    in
    ignore
      (Traffic.cbr ~gate:(Host_agent.Attacker.gate a) ~start:1. ~attack:true
         ~flow_id:(1000 + i) ~rate:1e6 ~dst net
         (Hierarchy.host t ~isp ~net:n ~host:0))
  done;
  let leaves =
    List.concat_map Array.to_list (Array.to_list d.Hierarchy.net_gateways)
  in
  let isps = Array.to_list d.Hierarchy.isp_gateways in
  fun () ->
    ( Host_agent.Victim.attack_bytes victim,
      Host_agent.Victim.good_bytes victim,
      Scenarios.counter_total leaves "filter-long",
      Scenarios.counter_total isps "filter-long",
      Host_agent.Victim.requests_sent victim )

(* A spoofed-source swarm on the chain: two fluid pools of 100 sources
   each with probe samplers, a fluid bystander, fluid victim-rate series. *)
let swarm_world sim =
  let module World = Aitf_workload.World in
  let module Bridge = Aitf_workload.Fluid_bridge in
  let spec = Chain.default_spec in
  let topo = Chain.build sim spec in
  let base j = Aitf_net.Addr.of_octets 32 (16 * j) 0 0 in
  let pools =
    World.add_pools topo spec ~bw:40e6
      (List.init 2 (fun j ->
           (Printf.sprintf "pool%d" j, Aitf_net.Addr.prefix (base j) 12)))
  in
  let rng = Rng.create ~seed:42 in
  let d = Chain.deploy ~victim_td:0.1 ~config:Config.default ~rng topo in
  let gws = d.Chain.victim_gateways @ d.Chain.attacker_gateways in
  let eng =
    Fluid.create ~epoch:Config.default.Config.hybrid_epoch topo.Chain.net
  in
  World.attach_tables eng gws;
  let probe_rng = Rng.split rng in
  let dst = topo.Chain.victim.Aitf_net.Node.addr in
  let absorbed =
    Array.mapi
      (fun j pool ->
        let agg =
          Fluid.add_aggregate eng ~flow_id:(1000 + j) ~origin:pool
            ~src_base:(base j) ~n:100 ~rate:10e6 ~dst ~attack:true ~start:1.
        in
        ignore (Aitf_flowsim.Sampler.attach ~rng:(Rng.split probe_rng) eng agg);
        Bridge.absorb_pool_requests pool)
      pools
  in
  ignore
    (Fluid.add_aggregate eng ~flow_id:2 ~origin:topo.Chain.bystander
       ~src_base:topo.Chain.bystander.Aitf_net.Node.addr ~n:1 ~rate:1e6 ~dst
       ~attack:false ~start:0.);
  let vm = Bridge.victim_meter eng in
  let points =
    sample_every sim (fun t -> Bridge.victim_attack_rate vm ~now:t)
  in
  fun () ->
    ( Fluid.delivered_bits eng ~attack:true,
      Fluid.delivered_bits eng ~attack:false,
      Host_agent.Victim.requests_sent d.Chain.victim_agent,
      Scenarios.filter_installs gws,
      Array.fold_left (fun acc r -> acc + !r) 0 absorbed,
      points () )

let test_chain_one_shard_identity () =
  let plain, sharded = replay_on_both ~until:5. chain_world in
  let (_, _, _, requests, points), events = plain in
  checkb "the chain world did something" true
    (requests > 0 && events > 0 && points <> []);
  checkb "chain: 1-shard sched is bit-identical to a plain sim" true
    (plain = sharded)

let test_flood_one_shard_identity () =
  let plain, sharded = replay_on_both ~until:5. flood_world in
  let (attack, _, leaf, _, requests), events = plain in
  checkb "the flood world did something" true
    (attack > 0. && requests > 0 && leaf > 0 && events > 0);
  checkb "flood: 1-shard sched is bit-identical to a plain sim" true
    (plain = sharded)

let test_swarm_one_shard_identity () =
  let plain, sharded = replay_on_both ~until:5. swarm_world in
  let (attack, _, requests, _, _, points), events = plain in
  checkb "the swarm world did something" true
    (attack > 0. && requests > 0 && events > 0 && points <> []);
  checkb "swarm: 1-shard sched is bit-identical to a plain sim" true
    (plain = sharded)

(* --- internet scenario: determinism and shard-count agreement --------------- *)

let small_internet shards =
  {
    As_scenario.default with
    As_scenario.as_spec =
      { As_graph.default_spec with As_graph.domains = 80; tier1 = 3 };
    as_config = { Config.default with Config.engine = Config.Hybrid };
    as_seed = 11;
    as_duration = 6.;
    as_sources = 2_000;
    as_attack_domains = 6;
    as_legit_domains = 3;
    as_legit_sources = 600;
    as_sample_period = 0.5;
    as_shards = shards;
  }

let internet_fingerprint (r : As_scenario.result) =
  ( r.As_scenario.r_good_offered_bytes,
    r.As_scenario.r_good_received_bytes,
    r.As_scenario.r_attack_received_bytes,
    r.As_scenario.r_requests_sent,
    r.As_scenario.r_filters_installed,
    r.As_scenario.r_slots_peak,
    r.As_scenario.r_events,
    Series.points r.As_scenario.r_victim_rate )

let test_internet_multishard_deterministic () =
  (* Same (seed, shards) must give the identical fingerprint on every
     run, whatever the OS does to the worker domains. *)
  let a = As_scenario.run (small_internet 3) in
  let b = As_scenario.run (small_internet 3) in
  checkb "3-shard runs are reproducible" true
    (internet_fingerprint a = internet_fingerprint b);
  checki "r_shards echoes the request" 3 a.As_scenario.r_shards;
  let st = a.As_scenario.r_sched_stats in
  checkb "shard windows executed" true (st.Sched.windows > 0);
  checkb "cross-shard messages flowed" true (st.Sched.messages > 0)

let test_internet_shard_agreement () =
  (* Across shard counts the event interleaving differs (global-first tie
     rule, window boundaries), so outcomes are only statistically equal:
     hold the E17-style 10% agreement tolerance on the goodput scalar. *)
  let seq = As_scenario.run (small_internet 1) in
  let par = As_scenario.run (small_internet 4) in
  let rel a b = if a = 0. then Float.abs b else Float.abs ((b -. a) /. a) in
  checkb "good received within 10%" true
    (rel seq.As_scenario.r_good_received_bytes
       par.As_scenario.r_good_received_bytes
    <= 0.10);
  checkb "1-shard stats are all zero" true
    (seq.As_scenario.r_sched_stats
    = {
        Sched.windows = 0;
        global_batches = 0;
        messages = 0;
        deferred = 0;
        stall_seconds = 0.;
      })

(* --- conservative ordering property ------------------------------------------ *)

(* Random shard topologies driven directly through the Sched API: every
   shard runs a self-rescheduling local ticker and posts cross-shard
   messages at [now + lookahead]. The conservative invariants: each
   world's execution times are non-decreasing (no event runs in its
   world's past), every message executes at exactly its timestamp, and
   nothing is lost. Failures would surface either as a broken log order
   or as [Sim.at] refusing a past timestamp. *)

type exec = { x_shard : int; x_time : float; x_kind : [ `Local | `Msg ] }

let run_random_topology ~shards ~lookaheads ~ticks ~until =
  let sched = Sched.create ~shards () in
  for src = 0 to shards - 1 do
    for dst = 0 to shards - 1 do
      if src <> dst then
        Sched.register_channel sched ~src ~dst ~lookahead:lookaheads.(src).(dst)
    done
  done;
  let log = Array.make shards [] in
  (* Bumped from every worker domain at once, hence atomic. *)
  let expected = Atomic.make 0 and executed = Atomic.make 0 in
  let record shard kind sim =
    log.(shard) <-
      { x_shard = shard; x_time = Sim.now sim; x_kind = kind } :: log.(shard);
    Atomic.incr executed
  in
  for s = 0 to shards - 1 do
    let sim = Sched.shard_sim sched s in
    let period = 0.01 +. (0.003 *. float_of_int (s + 1)) in
    let rec tick i =
      if Sim.now sim +. period <= until then begin
        Atomic.incr expected;
        ignore
          (Sim.after sim period (fun () ->
               record s `Local sim;
               (* Round-robin target; the message leaves with exactly the
                  channel's latency, the tightest legal timestamp. *)
               let dst = (s + 1 + (i mod (shards - 1))) mod shards in
               let t = Sim.now sim +. lookaheads.(s).(dst) in
               if t <= until then begin
                 Atomic.incr expected;
                 Sched.post sched ~dst ~time:t (fun () ->
                     record dst `Msg (Sched.shard_sim sched dst))
               end;
               tick (i + 1)))
      end
    in
    ignore (tick 0);
    for k = 1 to ticks do
      Atomic.incr expected;
      ignore
        (Sim.at sim
           (0.005 *. float_of_int (k * (s + 1)))
           (fun () -> record s `Local sim))
    done
  done;
  Sched.run ~until sched;
  (Array.map List.rev log, Atomic.get expected, Atomic.get executed)

let ordering_property (shards, las) =
  let lookaheads = Array.of_list (List.map Array.of_list las) in
  let logs, expected, executed =
    run_random_topology ~shards ~lookaheads ~ticks:5 ~until:1.0
  in
  let monotone l =
    let rec go = function
      | a :: (b :: _ as rest) -> a.x_time <= b.x_time && go rest
      | _ -> true
    in
    go l
  in
  Array.for_all monotone logs && expected = executed

let gen_topology =
  QCheck.Gen.(
    int_range 2 4 >>= fun shards ->
    let cell = map (fun v -> 0.005 +. (float_of_int v /. 1000.)) (int_range 1 80) in
    list_size (return shards) (list_size (return shards) cell)
    >>= fun las -> return (shards, las))

let ordering_qcheck =
  QCheck.Test.make ~name:"cross-shard messages never run early" ~count:30
    (QCheck.make
       ~print:(fun (n, las) ->
         Printf.sprintf "%d shards, lookaheads %s" n
           (String.concat ";"
              (List.map
                 (fun row ->
                   "[" ^ String.concat "," (List.map string_of_float row) ^ "]")
                 las)))
       gen_topology)
    ordering_property

let test_random_topology_deterministic () =
  let lookaheads = [| [| 0.; 0.013 |]; [| 0.021; 0. |] |] in
  let run () = run_random_topology ~shards:2 ~lookaheads ~ticks:4 ~until:2.0 in
  let l1, e1, x1 = run () in
  let l2, e2, x2 = run () in
  checkb "same logs across runs" true (l1 = l2);
  checki "same expected count" e1 e2;
  checki "all executed" x1 e1;
  checki "all executed (2nd run)" x2 e2

(* --- zero lookahead is an error, not a deadlock ------------------------------ *)

let test_zero_lookahead_rejected () =
  let sched = Sched.create ~shards:2 () in
  let rejects la =
    match Sched.register_channel sched ~src:0 ~dst:1 ~lookahead:la with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  checkb "zero lookahead rejected" true (rejects 0.);
  checkb "negative lookahead rejected" true (rejects (-0.5));
  checkb "nan lookahead rejected" true (rejects Float.nan);
  checkb "infinite lookahead rejected" true (rejects Float.infinity);
  checkb "self-channel rejected" true
    (match Sched.register_channel sched ~src:1 ~dst:1 ~lookahead:0.1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "out-of-range shard rejected" true
    (match Sched.register_channel sched ~src:0 ~dst:2 ~lookahead:0.1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "shards < 1 rejected" true
    (match Sched.create ~shards:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- per-instance profiler hooks --------------------------------------------- *)

let test_profile_hook_per_instance () =
  let module Profile = Aitf_obs.Profile in
  let module Obs = Aitf_obs.Obs in
  let pa = Profile.create () in
  let sim_a = Sim.create ~obs:(Obs.create ~profile:pa ()) ()
  and sim_b = Sim.create () in
  let burn sim n =
    for i = 1 to n do
      ignore (Sim.after sim (float_of_int i) (fun () -> ()))
    done;
    Sim.run sim
  in
  burn sim_a 5;
  burn sim_b 7;
  checki "world probe saw only its own sim" 5 (Profile.events pa);
  (* The default probe is inherited at [Sim.create] only, and only by
     worlds without a profiler of their own: worlds that existed
     beforehand — and worlds with their own probe — are unaffected. *)
  let pd = Profile.create () in
  Sim.set_default_profile_hook (Profile.probe pd);
  let pc = Profile.create () in
  let sim_c = Sim.create ~obs:(Obs.create ~profile:pc ()) () in
  let sim_d = Sim.create () in
  burn sim_c 4;
  burn sim_b 2;
  burn sim_d 3;
  Sim.clear_default_profile_hook ();
  checki "own profiler overrides the inherited default" 4 (Profile.events pc);
  checki "default probe reaches only new worlds without one" 3
    (Profile.events pd);
  Profile.merge_into pa [ pc ];
  checki "merge sums events" 9 (Profile.events pa)

(* --- guard rails -------------------------------------------------------------- *)

let test_bad_shards_rejected () =
  checkb "as_shards = 0 rejected" true
    (match As_scenario.run { (small_internet 1) with As_scenario.as_shards = 0 }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- observability composes with sharding ------------------------------------- *)

module Span = Aitf_obs.Span
module Flight = Aitf_obs.Flight
module Obs = Aitf_obs.Obs

let traced_run p =
  let sp = Span.create () in
  (As_scenario.run ~obs:(Obs.create ~spans:sp ()) p, sp)

let test_traced_equals_untraced () =
  (* Recording never schedules events and never consumes randomness, and
     every world mints from its own range whether or not it has a
     collector — so tracing must not move a single byte at any shard
     count. *)
  List.iter
    (fun shards ->
      let plain = As_scenario.run (small_internet shards) in
      let traced, sp = traced_run (small_internet shards) in
      checkb
        (Printf.sprintf "traced = untraced at %d shard(s)" shards)
        true
        (internet_fingerprint plain = internet_fingerprint traced);
      checkb
        (Printf.sprintf "spans were actually collected at %d shard(s)" shards)
        true
        (Span.roots sp <> []))
    [ 1; 4 ]

let test_span_digest_shard_invariant () =
  (* The canonical digest must not depend on how the domains were
     sharded: same seed, same trace. *)
  let digest shards =
    let _, sp = traced_run (small_internet shards) in
    Span.digest sp
  in
  let d1 = digest 1 and d2 = digest 2 and d4 = digest 4 in
  Alcotest.(check string) "digest: 1 shard = 2 shards" d1 d2;
  Alcotest.(check string) "digest: 1 shard = 4 shards" d1 d4

let test_back_to_back_digests () =
  (* Each run's worlds mint from their own counters: a second traced
     2-shard run in the same process needs no rewind to reproduce the
     first one's trace. *)
  let _, a = traced_run (small_internet 2) in
  let _, b = traced_run (small_internet 2) in
  checkb "spans were collected" true (Span.roots a <> []);
  Alcotest.(check string) "digest: run 1 = run 2" (Span.digest a)
    (Span.digest b)

let test_contracts_compose_with_shards () =
  let p shards =
    { (small_internet shards) with As_scenario.as_contracts = true }
  in
  let a = As_scenario.run (p 4) in
  let b = As_scenario.run (p 4) in
  checkb "sharded contract runs are reproducible" true
    (internet_fingerprint a = internet_fingerprint b);
  match a.As_scenario.r_auditor with
  | None -> Alcotest.fail "auditor missing from sharded contract run"
  | Some aud ->
    let bud =
      match b.As_scenario.r_auditor with
      | Some x -> x
      | None -> Alcotest.fail "auditor missing from repeat run"
    in
    checkb "receipts flowed through the defer seam" true
      (Aitf_contract.Auditor.receipts_verified aud > 0);
    checki "auditor outcomes reproduce"
      (Aitf_contract.Auditor.receipts_verified aud)
      (Aitf_contract.Auditor.receipts_verified bud)

let test_flight_recorder_composes_with_shards () =
  let fl = Flight.create ~capacity:4096 in
  let r = As_scenario.run ~obs:(Obs.create ~flight:fl ()) (small_internet 4) in
  checki "ran sharded" 4 r.As_scenario.r_shards;
  let rs = Flight.records fl in
  checkb "records were captured" true (rs <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Flight.time <= b.Flight.time && sorted rest
    | _ -> true
  in
  checkb "merged records are time-sorted" true (sorted rs)

let test_parallel_report_section () =
  let r = As_scenario.run (small_internet 3) in
  match r.As_scenario.r_parallel with
  | None -> Alcotest.fail "r_parallel missing at 3 shards"
  | Some j ->
    let module Json = Aitf_obs.Json in
    let int_field name =
      match Option.bind (Json.member name j) Json.get_float with
      | Some v -> int_of_float v
      | None -> Alcotest.fail ("parallel section missing " ^ name)
    in
    checki "shards echoed" 3 (int_field "shards");
    checkb "windows counted" true (int_field "windows" > 0);
    checkb "messages counted" true (int_field "messages" > 0);
    let seq = As_scenario.run (small_internet 1) in
    checkb "no parallel section at 1 shard" true
      (seq.As_scenario.r_parallel = None)

let () =
  Alcotest.run "aitf_parallel"
    [
      ( "identity",
        [
          Alcotest.test_case "chain 1-shard bit-identity" `Quick
            test_chain_one_shard_identity;
          Alcotest.test_case "flood 1-shard bit-identity" `Quick
            test_flood_one_shard_identity;
          Alcotest.test_case "swarm 1-shard bit-identity" `Quick
            test_swarm_one_shard_identity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "multi-shard runs reproduce" `Slow
            test_internet_multishard_deterministic;
          Alcotest.test_case "1 vs 4 shards agree within 10%" `Slow
            test_internet_shard_agreement;
          Alcotest.test_case "random topology reproduces" `Quick
            test_random_topology_deterministic;
        ] );
      ( "ordering",
        [
          QCheck_alcotest.to_alcotest ordering_qcheck;
          Alcotest.test_case "zero lookahead is an error" `Quick
            test_zero_lookahead_rejected;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "profiler hooks are per-instance" `Quick
            test_profile_hook_per_instance;
          Alcotest.test_case "bad shard counts rejected" `Quick
            test_bad_shards_rejected;
        ] );
      ( "observability",
        [
          Alcotest.test_case "traced runs are bit-identical to untraced" `Slow
            test_traced_equals_untraced;
          Alcotest.test_case "span digest is shard-invariant" `Slow
            test_span_digest_shard_invariant;
          Alcotest.test_case "back-to-back sharded runs trace alike" `Slow
            test_back_to_back_digests;
          Alcotest.test_case "contracts compose with shards" `Slow
            test_contracts_compose_with_shards;
          Alcotest.test_case "flight recorder composes with shards" `Quick
            test_flight_recorder_composes_with_shards;
          Alcotest.test_case "parallel report section" `Quick
            test_parallel_report_section;
        ] );
    ]
