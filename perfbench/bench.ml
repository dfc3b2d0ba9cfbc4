(* One benchmark sample: run a named workload once through the public
   scenario entry points ([As_scenario.run], [Scenarios.run_chain]) and
   print one JSON line with its outcome fingerprint, host cost, GC deltas
   and layer counts. [run.py] spawns this once per sample, so every sample
   starts from a fresh heap and [top_heap_words] is that run's peak.

     bench.exe describe
     bench.exe sample --workload W --seed N [--mode run|setup|traced]
                      [--duration S] [--spans FILE]

   Every clock here is CLOCK_MONOTONIC ([clock_stubs.c]); [Sys.time] is
   process CPU time summed over domains and is never read. *)

module Sim = Aitf_engine.Sim
module Sched = Aitf_parallel.Sched
module Link = Aitf_net.Link
module Network = Aitf_net.Network
module Filter_table = Aitf_filter.Filter_table
module Overload = Aitf_filter.Overload
module Config = Aitf_core.Config
module Gateway = Aitf_core.Gateway
module Placement = Aitf_core.Placement
module As_graph = Aitf_topo.As_graph
module Chain = Aitf_topo.Chain
module As_scenario = Aitf_workload.As_scenario
module Scenarios = Aitf_workload.Scenarios
module Placement_ctl = Aitf_workload.Placement_ctl
module Fluid = Aitf_flowsim.Fluid
module Adversary = Aitf_adversary.Adversary
module Json = Aitf_obs.Json

external monotonic_ns : unit -> (int[@untagged])
  = "perfbench_monotonic_ns_byte" "perfbench_monotonic_ns"
[@@noalloc]

external thread_cpu_ns : unit -> (int[@untagged])
  = "perfbench_thread_cpu_ns_byte" "perfbench_thread_cpu_ns"
[@@noalloc]

let seconds ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* What a run produced. The fingerprint fields are model statistics a
   correct speed-up cannot change; [counts] are the per-layer counters read
   from public accessors after the run. *)
type outcome = {
  events : int;
  hops : int;
  good_bytes : float;
  attack_bytes : float;
  filters : int;
  requests : int;
  ttf : float option;
  counts : (string * float) list;
}

let fingerprint o =
  Printf.sprintf "events=%d hops=%d good=%h attack=%h filters=%d requests=%d ttf=%s"
    o.events o.hops o.good_bytes o.attack_bytes o.filters o.requests
    (match o.ttf with None -> "never" | Some t -> Printf.sprintf "%h" t)

(* A sample of a workload runs several scenario instances one after the
   other; its outcome is their sum and its fingerprint lists each one. *)
let combine os =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 os in
  let sumf f = List.fold_left (fun acc o -> acc +. f o) 0. os in
  ( {
      events = sum (fun o -> o.events);
      hops = sum (fun o -> o.hops);
      good_bytes = sumf (fun o -> o.good_bytes);
      attack_bytes = sumf (fun o -> o.attack_bytes);
      filters = sum (fun o -> o.filters);
      requests = sum (fun o -> o.requests);
      ttf = None;  (* per instance, in the fingerprint *)
      counts =
        List.map
          (fun (k, _) -> (k, sumf (fun o -> List.assoc k o.counts)))
          (List.hd os).counts;
    },
    String.concat " | " (List.map fingerprint os) )

let sum_links f links = List.fold_left (fun acc l -> acc + f l) 0 links
let sum_gws f gws = List.fold_left (fun acc gw -> acc + f gw) 0 gws

let overload_total f gws =
  sum_gws (fun gw -> match Gateway.overload gw with Some o -> f o | None -> 0) gws

let filter_total f gws = sum_gws (fun gw -> f (Gateway.filters gw)) gws

let net_counts links =
  [
    ("net.hops", sum_links Link.tx_packets links);
    ("net.drops", sum_links Link.dropped_packets links);
  ]

let internet ~shards ~placement ~seed ~duration =
  let d = As_scenario.default in
  let p =
    {
      d with
      As_scenario.as_config = { d.As_scenario.as_config with Config.placement };
      as_seed = seed;
      as_duration = duration;
      as_shards = shards;
    }
  in
  let r = As_scenario.run p in
  let links = Network.links (As_graph.net r.As_scenario.r_graph) in
  let gws = Array.to_list r.As_scenario.r_gateways in
  let ctl f = match r.As_scenario.r_ctl with Some c -> f c | None -> 0 in
  let st = r.As_scenario.r_sched_stats in
  {
    events = r.As_scenario.r_events;
    hops = sum_links Link.tx_packets links;
    good_bytes = r.As_scenario.r_good_received_bytes;
    attack_bytes = r.As_scenario.r_attack_received_bytes;
    filters = r.As_scenario.r_filters_installed;
    requests = r.As_scenario.r_requests_sent;
    ttf = r.As_scenario.r_time_to_filter;
    counts =
      List.map (fun (k, v) -> (k, float_of_int v))
        (net_counts links
        @ [
            ("placement.evidence", ctl Placement_ctl.evidence);
            ("placement.installs", ctl Placement_ctl.installs);
            ("placement.reclaims", ctl Placement_ctl.reclaims);
            ("placement.pushes", ctl Placement_ctl.pushes);
            ("placement.evictions_observed", ctl Placement_ctl.evictions_observed);
            ("flowsim.recomputes", Fluid.recomputes r.As_scenario.r_fluid);
            ("flowsim.link_visits", Fluid.link_visits r.As_scenario.r_fluid);
            ("filter.installs", r.As_scenario.r_filters_installed);
            ("filter.rejected", filter_total Filter_table.rejected gws);
            ("filter.blocked_packets", filter_total Filter_table.blocked_packets gws);
            ("filter.slots_peak", r.As_scenario.r_slots_peak);
            ("filter.overload_evictions", overload_total Overload.evictions gws);
            ("filter.overload_aggregations", overload_total Overload.aggregations gws);
            ("core.requests_sent", r.As_scenario.r_requests_sent);
            ("core.requests_received", sum_gws Gateway.requests_received gws);
            ("parallel.windows", st.Sched.windows);
            ("parallel.global_batches", st.Sched.global_batches);
            ("parallel.messages", st.Sched.messages);
            ("parallel.deferred", st.Sched.deferred);
          ])
      @ [ ("parallel.coordinator_wait_s", st.Sched.stall_seconds) ];
  }

let chain_exhaustion ~seed ~duration =
  let d = Scenarios.default_chain in
  let p =
    {
      d with
      Scenarios.config =
        {
          d.Scenarios.config with
          Config.engine = Config.Packet;
          filter_capacity = 64;
          overload_manager = true;
        };
      seed;
      duration;
      adversaries =
        [
          Adversary.Slot_exhaustion { sources = 512; rate = 2e7 };
          Adversary.Shadow_exhaustion { flows = 4096; rate = 200. };
        ];
    }
  in
  let r = Scenarios.run_chain p in
  let dep = r.Scenarios.deployed in
  let links = Network.links dep.Chain.topo.Chain.net in
  let gws = dep.Chain.victim_gateways @ dep.Chain.attacker_gateways in
  let installs = filter_total Filter_table.installs gws in
  {
    events = r.Scenarios.events_processed;
    hops = sum_links Link.tx_packets links;
    good_bytes = r.Scenarios.good_received_bytes;
    attack_bytes = r.Scenarios.attack_received_bytes;
    filters = installs;
    requests = r.Scenarios.requests_sent;
    ttf = Scenarios.time_to_suppress r ~threshold:0.05;
    counts =
      List.map (fun (k, v) -> (k, float_of_int v))
        (net_counts links
        @ [
            ("filter.installs", installs);
            ("filter.rejected", filter_total Filter_table.rejected gws);
            ("filter.blocked_packets", filter_total Filter_table.blocked_packets gws);
            ("filter.slots_peak", filter_total Filter_table.peak_occupancy gws);
            ("filter.overload_evictions", r.Scenarios.overload_evictions);
            ("filter.overload_aggregations", r.Scenarios.overload_aggregations);
            ("core.requests_sent", r.Scenarios.requests_sent);
            ("core.requests_received", sum_gws Gateway.requests_received gws);
          ]);
  }

type workload = {
  name : string;
  why : string;
  inputs : (string * string) list;
  duration : float;  (** simulated seconds of each instance *)
  instances : int;  (** scenario instances per sample *)
  run : seed:int -> duration:float -> outcome;
}

(* Instance [i] of a sample at workload seed [n] uses scenario seed
   [n * instances + i], so different workload seeds never share one. *)
let run_instances ?(before = ignore) w ~seed ~duration =
  combine
    (List.init w.instances (fun i ->
         before ();
         w.run ~seed:((seed * w.instances) + i) ~duration))

(* 6 of the scenario's default 30 simulated seconds, over three generated
   Internets per sample. The attack starts at 1 s, so each workload keeps
   its character (vanilla never converges, adaptive converges at about
   1.1 s), and set-up (topology, gateways, pools) is under a tenth of a
   sample's wall time, so the run phase is what a sample measures. Hop
   counts differ by up to 15% from one generated Internet to the next;
   summing three instances halves that spread between workload seeds. A
   sample takes 2-3 host seconds, so one run holds enough samples for a
   steady median on a shared host. *)
let internet_duration = 6.
let internet_instances = 3

let internet_inputs =
  [
    ("scenario", "As_scenario.default");
    ("domains", "1000");
    ("attack_sources", "100000");
    ("legit_sources", "10000");
    ("engine", "hybrid");
  ]

let workloads =
  [
    {
      name = "internet-vanilla";
      why =
        "Vanilla placement never converges, so packet-hops cross links, \
         nodes and gateway filter probes all run long: the per-hop read \
         path.";
      inputs = internet_inputs @ [ ("placement", "vanilla"); ("shards", "1") ];
      duration = internet_duration;
      instances = internet_instances;
      run = internet ~shards:1 ~placement:Placement.Vanilla;
    };
    {
      name = "internet-adaptive";
      why =
        "Adaptive placement converges at about 1.1 s: hops fall, and the \
         placement controller's epoch ticks and filter installs take as \
         much event time as the per-hop path.";
      inputs = internet_inputs @ [ ("placement", "adaptive"); ("shards", "1") ];
      duration = internet_duration;
      instances = internet_instances;
      run = internet ~shards:1 ~placement:Placement.Adaptive;
    };
    {
      name = "chain-exhaustion";
      why =
        "Figure-1 chain under slot and shadow exhaustion with the overload \
         manager: every packet is an event and filter tables churn, the \
         filter write path.";
      inputs =
        [
          ("scenario", "Scenarios.default_chain");
          ("engine", "packet");
          ("filter_capacity", "64");
          ("overload_manager", "true");
          ("playbooks", "slot-exhaustion:sources=512,rate=2e7 shadow-exhaustion:flows=4096,rate=200");
        ];
      (* Half of the Figure-1 300 s horizon: twice the 60 s filter
         timeout, so filter expiry and re-install cycles are included. The
         chain is fixed, so seeds barely change the work and one instance
         is enough. *)
      duration = 150.;
      instances = 1;
      run = chain_exhaustion;
    };
    {
      name = "internet-vanilla-2shard";
      why =
        "internet-vanilla on two worker domains: the only workload through \
         the parallel scheduler's windows, cross-shard posts and defers.";
      inputs = internet_inputs @ [ ("placement", "vanilla"); ("shards", "2") ];
      duration = internet_duration;
      instances = internet_instances;
      run = internet ~shards:2 ~placement:Placement.Vanilla;
    };
  ]

(* A near-zero simulated duration: the scenario builds its topology,
   deploys gateways and attaches pools, then stops before any traffic. *)
let setup_duration = 1e-6

(* A set-up sample repeats set-up in its process for at least this long
   and reports the median repetition: the chain sets up in well under a
   millisecond, too short to time once. *)
let setup_min_s = 0.25

(* ------------------------------------------------------------------ *)
(* Per-layer trace                                                     *)

(* The label -> layer map, written down once. Layers are the lib/
   directories whose code schedules the event; unlabelled events are
   [untagged] and a label missing here lands in [other], so no event is
   ever dropped from the sum. *)
let layers =
  [|
    ("net.link_tx", [ "link-tx" ]);
    ("net.delivery", [ "link-delivery"; "local-deliver" ]);
    ("workload.traffic", [ "traffic" ]);
    ("filter.timers", [ "filter-expiry"; "shadow-expiry" ]);
    ( "core.timers",
      [
        "detection-td"; "victim-retry"; "handshake-rto"; "gw-ctrl-retry";
        "gw-grace"; "gw-receipt"; "gw-traceback"; "gw-ttmp-expiry";
      ] );
    ("flowsim.sampler", [ "fluid-sampler" ]);
    ("flowsim.recompute", [ "fluid-recompute"; "fluid-epoch" ]);
    ("parallel.xshard", [ "xshard-delivery" ]);
    ("untagged", []);
    ("other", []);
  |]

let n_layers = Array.length layers
let untagged = n_layers - 2
let other = n_layers - 1

let layer_of_string s =
  let rec find i =
    if i >= untagged then other
    else if List.mem s (snd layers.(i)) then i
    else find (i + 1)
  in
  find 0

(* One buffer per domain, owned by that domain alone: the hook of a shard
   never touches another shard's buffer. Spans are 4 ints each (layer,
   start ns, stop ns, minor words) in chunks allocated straight on the
   major heap, so recording a span allocates nothing and only a new chunk
   adds one list cell. The registry is only written when a domain records
   its first event. *)
let chunk_spans = 1 lsl 15

type buf = {
  dom : int;
  mutable full : int array list;  (* filled chunks, newest first *)
  mutable cur : int array;
  mutable pos : int;
  mutable last_stop : int;
  mutable last_cpu : int;
  mutable last_words : int;
  mutable peak_depth : int;
  mutable idle : int;  (* ns between events spent blocked or descheduled *)
  mutable fresh : bool;  (* the next event follows non-event work *)
  cost : int array;  (* per layer: Sim's own measure of its events, ns *)
  keys : string array;  (* labels seen, compared physically *)
  vals : int array;
  mutable nkeys : int;
}

let minor_words () = int_of_float (Gc.minor_words ())
let registry : buf list Atomic.t = Atomic.make []

let rec register b =
  let l = Atomic.get registry in
  if not (Atomic.compare_and_set registry l (b :: l)) then register b

(* Created on a domain's first hook call, so that event's span is empty:
   the time before it is set-up or domain spawn, not event work. *)
let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          full = [];
          cur = Array.make (4 * chunk_spans) 0;
          pos = 0;
          last_stop = monotonic_ns ();
          last_cpu = thread_cpu_ns ();
          last_words = minor_words ();
          peak_depth = 0;
          idle = 0;
          fresh = false;
          cost = Array.make n_layers 0;
          keys = Array.make 64 "";
          vals = Array.make 64 0;
          nkeys = 0;
        }
      in
      register b;
      b)

let layer_index b = function
  | None -> untagged
  | Some s ->
    let rec scan i =
      if i = b.nkeys then begin
        let l = layer_of_string s in
        if b.nkeys < Array.length b.keys then begin
          b.keys.(b.nkeys) <- s;
          b.vals.(b.nkeys) <- l;
          b.nkeys <- b.nkeys + 1
        end;
        l
      end
      else if b.keys.(i) == s then b.vals.(i)
      else scan (i + 1)
    in
    scan 0

(* Called by [Sim] after every event. A span runs from the domain's
   previous span end to now, capped by the domain's own CPU time over that
   interval, so time a worker spent parked at a barrier is not charged to
   the next event. Sim's cost argument (process CPU time around the event's
   action alone) is not used for spans; it is summed per layer so that the
   self-test can check span times against an independent measure. The
   clock is read again at the end so the hook's own cost is left out of the
   next span. *)
let hook label cost depth =
  let b = Domain.DLS.get buf_key in
  let stop = monotonic_ns () in
  let cpu = thread_cpu_ns () in
  let words = minor_words () in
  let wall = stop - b.last_stop and busy = cpu - b.last_cpu in
  let fresh = b.fresh in
  let dur = if fresh then 0 else if busy < wall then busy else wall in
  if b.pos = Array.length b.cur then begin
    b.full <- b.cur :: b.full;
    b.cur <- Array.make (4 * chunk_spans) 0;
    b.pos <- 0
  end;
  let a = b.cur and p = b.pos and l = layer_index b label in
  b.cost.(l) <- b.cost.(l) + int_of_float (cost *. 1e9);
  a.(p) <- l;
  a.(p + 1) <- stop - dur;
  a.(p + 2) <- stop;
  a.(p + 3) <- (if fresh then 0 else words - b.last_words);
  b.pos <- p + 4;
  if fresh then b.fresh <- false else b.idle <- b.idle + (wall - dur);
  if depth > b.peak_depth then b.peak_depth <- depth;
  b.last_cpu <- cpu;
  b.last_words <- minor_words ();
  b.last_stop <- monotonic_ns ()

(* Before each further scenario instance in one process: the gap since the
   last event is the previous run's tail and this run's set-up, so the
   next event on this domain gets an empty span, like a domain's first. *)
let restart_spans () = (Domain.DLS.get buf_key).fresh <- true

let iter_spans b f =
  let chunk a n =
    let i = ref 0 in
    while !i < n do
      f a.(!i) a.(!i + 1) a.(!i + 2) a.(!i + 3);
      i := !i + 4
    done
  in
  List.iter (fun a -> chunk a (Array.length a)) (List.rev b.full);
  chunk b.cur b.pos

let write_spans path ~origin bufs =
  let oc = open_out path in
  output_string oc "domain\tlayer\tstart_ns\tstop_ns\tminor_words\n";
  List.iter
    (fun b ->
      iter_spans b (fun l start stop words ->
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" b.dom (fst layers.(l))
            (start - origin) (stop - origin) words))
    bufs;
  close_out oc

(* Per-layer and per-domain sums over every recorded span. *)
let trace_summary bufs =
  let busy = Array.make n_layers 0
  and events = Array.make n_layers 0
  and words = Array.make n_layers 0
  and cost = Array.make n_layers 0 in
  let depth = ref 0 in
  let domains =
    List.map
      (fun b ->
        let dbusy = ref 0 and dev = ref 0 in
        iter_spans b (fun l start stop w ->
            busy.(l) <- busy.(l) + (stop - start);
            events.(l) <- events.(l) + 1;
            words.(l) <- words.(l) + w;
            dbusy := !dbusy + (stop - start);
            incr dev);
        depth := max !depth b.peak_depth;
        Array.iteri (fun l c -> cost.(l) <- cost.(l) + c) b.cost;
        Json.Obj
          [
            ("domain", Json.Int b.dom);
            ("busy_s", Json.Float (seconds !dbusy));
            ("events", Json.Int !dev);
            ("idle_s", Json.Float (seconds b.idle));
          ])
      (List.sort (fun a b -> compare a.dom b.dom) bufs)
  in
  Json.Obj
    [
      ( "layers",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun i (name, _) ->
                  ( name,
                    Json.Obj
                      [
                        ("busy_s", Json.Float (seconds busy.(i)));
                        ("events", Json.Int events.(i));
                        ("words", Json.Int words.(i));
                        ("engine_cost_s", Json.Float (seconds cost.(i)));
                      ] ))
                layers)) );
      ("domains", Json.List domains);
      ("peak_queue", Json.Int !depth);
    ]

(* ------------------------------------------------------------------ *)
(* One sample                                                          *)

let gc_json () =
  let g = Gc.get () in
  Json.Obj
    [
      ("ocaml", Json.String Sys.ocaml_version);
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ( "ocamlrunparam",
        Json.String (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"") );
      ("minor_heap_words", Json.Int g.Gc.minor_heap_size);
      ("space_overhead", Json.Int g.Gc.space_overhead);
    ]

(* One timed run of [w]'s instances: wall time on the monotonic clock and
   [Gc.quick_stat] on both sides. [Gc.quick_stat] counts a domain's minor
   words only at its minor collections (joined worker domains are folded
   in), so the minor heap is emptied on both sides to make the delta
   exact. *)
let measure w ~seed ~duration ~before =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let t0 = monotonic_ns () in
  let result =
    try Ok (run_instances w ~seed ~duration ~before)
    with e -> Error (Printexc.to_string e)
  in
  let t1 = monotonic_ns () in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  (result, t0, t1, g0, g1)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sample w ~seed ~mode ~duration ~spans =
  Sched.set_default_clock (fun () -> seconds (monotonic_ns ()));
  let traced = mode = "traced" in
  if traced then Sim.set_default_profile_hook hook;
  let result, t0, t1, g0, g1 =
    measure w ~seed ~duration ~before:(if traced then restart_spans else ignore)
  in
  if traced then Sim.clear_default_profile_hook ();
  (* Set-up repeats: each must reach the same outcome as the first, whose
     GC deltas (a fresh process's) are the ones reported. *)
  let result, walls =
    if mode <> "setup" then (result, [ seconds (t1 - t0) ])
    else
      let rec more result walls total =
        match result with
        | Ok (_, fp) when total < setup_min_s ->
          let r, t0, t1, _, _ = measure w ~seed ~duration ~before:ignore in
          let wall = seconds (t1 - t0) in
          let result =
            match r with
            | Ok (_, fp') when fp' <> fp ->
              Error ("set-up repetition reached " ^ fp' ^ ", first " ^ fp)
            | Error _ -> r
            | Ok _ -> result
          in
          more result (wall :: walls) (total +. wall)
        | _ -> (result, walls)
      in
      let wall = seconds (t1 - t0) in
      more result [ wall ] wall
  in
  let common =
    [
      ("workload", Json.String w.name);
      ("seed", Json.Int seed);
      ("mode", Json.String mode);
      ("duration", Json.Float duration);
      ("wall_s", Json.Float (median walls));
      ("repetitions", Json.Int (List.length walls));
      ("gc", gc_json ());
    ]
  in
  match result with
  | Error msg -> Json.Obj (common @ [ ("ok", Json.Bool false); ("error", Json.String msg) ])
  | Ok (o, fp) ->
    let bufs = Atomic.get registry in
    (match spans with
    | Some path when traced -> write_spans path ~origin:t0 bufs
    | _ -> ());
    Json.Obj
      (common
      @ [
          ("ok", Json.Bool true);
          ("fingerprint", Json.String fp);
          ("events", Json.Int o.events);
          ("hops", Json.Int o.hops);
          ( "gc_delta",
            Json.Obj
              [
                ("minor_words", Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
                ( "promoted_words",
                  Json.Float (g1.Gc.promoted_words -. g0.Gc.promoted_words) );
                ( "minor_collections",
                  Json.Int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
                ( "major_collections",
                  Json.Int (g1.Gc.major_collections - g0.Gc.major_collections) );
                ("top_heap_words", Json.Int g1.Gc.top_heap_words);
              ] );
          ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.counts));
        ]
      @ if traced then [ ("trace", trace_summary bufs) ] else [])

let describe () =
  Json.Obj
    [
      ( "workloads",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("name", Json.String w.name);
                   ("why", Json.String w.why);
                   ("default_seed", Json.Int 42);
                   ("simulated_s", Json.Float w.duration);
                   ("instances", Json.Int w.instances);
                   ( "inputs",
                     Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) w.inputs) );
                 ])
             workloads) );
      ( "layers",
        Json.Obj
          (Array.to_list
             (Array.map
                (fun (name, labels) ->
                  (name, Json.List (List.map (fun l -> Json.String l) labels)))
                layers)) );
      ("setup_simulated_s", Json.Float setup_duration);
    ]

let () =
  let workload = ref "" and seed = ref 42 and mode = ref "run" in
  let duration = ref None and spans = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--mode", Arg.Symbol ([ "run"; "setup"; "traced" ], fun m -> mode := m),
       " run (untraced), setup (near-zero simulated time) or traced");
      ("--duration", Arg.Float (fun d -> duration := Some d), "S override simulated seconds");
      ("--spans", Arg.String (fun p -> spans := Some p), "FILE write traced spans as TSV");
    ]
  in
  let command = ref "" in
  Arg.parse specs (fun c -> command := c) "bench.exe (describe | sample) [options]";
  match !command with
  | "describe" -> print_endline (Json.to_string ~minify:true (describe ()))
  | "sample" -> (
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("bench.exe: unknown workload " ^ !workload);
      exit 2
    | Some w ->
      let duration =
        match (!mode, !duration) with
        | "setup", _ -> setup_duration
        | _, Some d -> d
        | _, None -> w.duration
      in
      print_endline
        (Json.to_string ~minify:true
           (sample w ~seed:!seed ~mode:!mode ~duration ~spans:!spans)))
  | _ ->
    prerr_endline "bench.exe: expected 'describe' or 'sample'";
    exit 2
