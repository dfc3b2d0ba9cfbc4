(* aitf_sim — command-line front end to the AITF simulator.

   Subcommands:
     run       simulate a single-attacker Figure-1 scenario, every protocol
               knob exposed as a flag; optionally dump the victim-rate
               series as CSV
     flood     a zombie army vs a server in a provider hierarchy
     swarm     a spoofed-source swarm over fluid aggregates (hybrid engine)
     internet  a generated AS-level Internet under DDoS, with a pluggable
               filter-placement policy (docs/TOPOLOGY.md, docs/PLACEMENT.md)
     matrix    the golden-trace differential matrix: every topology x
               engine x fault x adversary x placement cell byte-compared
               against checked-in goldens (docs/GOLDENS.md)
     replay    drive a trace-driven attack (synthesized or from a file)
               through either engine (docs/GOLDENS.md)
     formulas  evaluate the paper's Section IV formulas for given
               parameters

   Numeric flags are validated up front: a malformed value (nan, an
   out-of-range probability, a zero count) is rejected with the flag
   named and the CLI-error exit code, never absorbed by a default.

   Examples:
     aitf_sim run --duration 60 --t-filter 6 --non-coop 1 --strategy onoff
     aitf_sim run --trace --duration 10
     aitf_sim run --spans spans.json --flight-recorder 4096 --profile
     aitf_sim swarm --sources 100000 --pools 8 --spans spans.json
     aitf_sim internet --sources 1000000 --placement optimal
     aitf_sim matrix --smoke --bench-json BENCH_E19.json
     aitf_sim replay --shape carpet --seed 7 --emit-trace
     aitf_sim formulas --r1 100 --r2 1 --t-filter 60 --ttmp 0.6
*)

module Series = Aitf_stats.Series
module Table = Aitf_stats.Table
open Aitf_core
module Scenarios = Aitf_workload.Scenarios
module Runner = Aitf_workload.Runner
module Formulas = Aitf_model.Formulas
open Cmdliner

(* --- flag values ------------------------------------------------------------ *)

(* Strict numeric flag values. [Arg.float] happily accepts "nan", "inf"
   and out-of-range numbers, which then propagate silently into the
   scenario (a nan duration runs forever, a loss of 1.5 is a certainty).
   Every numeric flag goes through one of these validated converters, so
   a malformed value names the offending flag and exits non-zero. *)
let finite what s =
  match float_of_string_opt s with
  | None ->
    Error (`Msg (Printf.sprintf "%s: expected a number, got %S" what s))
  | Some v when not (Float.is_finite v) ->
    Error (`Msg (Printf.sprintf "%s: must be finite, got %S" what s))
  | Some v -> Ok v

let float_conv what ~check ~expect =
  let parse s =
    Result.bind (finite what s) (fun v ->
        if check v then Ok v
        else
          Error (`Msg (Printf.sprintf "%s: must be %s, got %g" what expect v)))
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let pos_float what = float_conv what ~check:(fun v -> v > 0.) ~expect:"> 0"

let nonneg_float what =
  float_conv what ~check:(fun v -> v >= 0.) ~expect:">= 0"

let prob_float what =
  float_conv what
    ~check:(fun v -> v >= 0. && v <= 1.)
    ~expect:"a probability in [0, 1]"

let min_int lo what =
  let parse s =
    match int_of_string_opt s with
    | None ->
      Error (`Msg (Printf.sprintf "%s: expected an integer, got %S" what s))
    | Some v when v < lo ->
      Error (`Msg (Printf.sprintf "%s: must be >= %d, got %d" what lo v))
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_int)

(* "A:B" float pairs, for --burst-loss and --flap; both components are
   validated by [check]/[expect] like the scalar converters. *)
let pair_conv ~check ~expect what =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      match (float_of_string_opt a, float_of_string_opt b) with
      | Some a, Some b ->
        if check a && check b then Ok (a, b)
        else
          Error
            (`Msg
               (Printf.sprintf "%s: both components must be %s" what expect))
      | _ -> Error (`Msg (Printf.sprintf "%s expects FLOAT:FLOAT" what)))
    | _ -> Error (`Msg (Printf.sprintf "%s expects FLOAT:FLOAT" what))
  in
  let print fmt (a, b) = Format.fprintf fmt "%g:%g" a b in
  Arg.conv (parse, print)

(* Parsers from the libraries' own string forms. *)
let string_conv parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun fmt v -> Format.pp_print_string fmt (print v) )

let adversary_conv =
  let module A = Aitf_adversary.Adversary in
  string_conv A.playbook_of_string A.playbook_to_string

let placement_conv =
  string_conv Placement.policy_of_string Placement.policy_to_string

let strategy_conv =
  let parse = function
    | "complies" -> Ok Policy.Complies
    | "ignores" -> Ok Policy.Ignores
    | s when String.length s > 6 && String.sub s 0 6 = "onoff:" -> (
      match float_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some off_time -> Ok (Policy.On_off { off_time })
      | None -> Error (`Msg "onoff:<seconds> expected"))
    | "onoff" -> Ok (Policy.On_off { off_time = 1.0 })
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, Policy.pp_attacker)

let lying_mode_conv =
  let module A = Aitf_adversary.Adversary in
  let parse s =
    match String.split_on_char ':' s with
    | [ "accept-ignore" ] -> Ok A.Accept_ignore
    | [ "forge" ] -> Ok A.Forge
    | [ "replay" ] -> Ok A.Replay
    | [ "partial" ] -> Ok (A.Partial 125_000.)
    | [ "partial"; leak ] -> (
      match float_of_string_opt leak with
      | Some l when l >= 0. -> Ok (A.Partial l)
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "--lying-mode: bad leak %S" leak)))
    | _ ->
      Error
        (`Msg
           "--lying-mode: expected accept-ignore | partial[:BYTES/S] | \
            forge | replay")
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
      | A.Accept_ignore -> "accept-ignore"
      | A.Partial l -> Printf.sprintf "partial:%g" l
      | A.Forge -> "forge"
      | A.Replay -> "replay")
  in
  Arg.conv (parse, print)

(* --- flags shared by the scenario subcommands -------------------------------- *)

(* [--NAME] with a validated converter ([cv] receives the flag name for
   its error messages), a boolean [--NAME], and an optional [--NAME FILE]. *)
let arg ?(names = []) ?docv cv name default doc =
  Arg.(value & opt (cv ("--" ^ name)) default & info (name :: names) ?docv ~doc)

let switch name doc = Arg.(value & flag & info [ name ] ~doc)

let file_arg name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let duration default =
  arg pos_float "duration" default ~docv:"SECONDS" "Simulated duration."

let seed ?(doc = "Deterministic seed.") () =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let td =
  arg nonneg_float "td" 0.1 ~docv:"SECONDS"
    "Victim detection delay Td for a new flow."

let attack_rate default doc =
  arg nonneg_float "attack-rate" default ~docv:"BITS/S" doc

let legit_rate default doc =
  arg nonneg_float "legit-rate" default ~docv:"BITS/S" doc

let sources default doc = arg (min_int 1) "sources" default ~docv:"N" doc

let engine =
  Arg.(value
       & opt (enum [ ("packet", Config.Packet); ("hybrid", Config.Hybrid) ])
           Config.Packet
       & info [ "engine" ] ~docv:"packet|hybrid"
           ~doc:"Data-plane substrate: discrete packets end to end, or \
                 the fluid rate-domain plane bridged to the packet-level \
                 control plane by sampled probes (see docs/SIMULATOR.md).")

let hybrid_epoch =
  arg pos_float "hybrid-epoch" Config.default.Config.hybrid_epoch
    ~docv:"SECONDS" "Fluid-share recompute period of the hybrid engine."

let probe_rate =
  Arg.(value & opt float Config.default.Config.hybrid_probe_rate
       & info [ "probe-rate" ] ~docv:"PKTS/S"
           ~doc:"Probe packets materialised per fluid aggregate under the \
                 hybrid engine (0 = derive from the aggregate's own rate).")

let overload doc = switch "overload" doc

let filter_capacity =
  arg (min_int 1) "filter-capacity" Config.default.Config.filter_capacity
    ~docv:"SLOTS" "Wire-speed filter-table slots per gateway."

let metrics =
  file_arg "metrics"
    "Attach a metrics registry and write a JSON run report (schema \
     aitf.run-report/1, see docs/OBSERVABILITY.md)."

let metrics_interval =
  arg nonneg_float "metrics-interval" 0. ~docv:"SECONDS"
    "Metric sampling period (0 = the scenario default)."

let sample_period ~default interval = if interval > 0. then interval else default

let csv = file_arg "csv" "Write the victim-observed attack-rate series as CSV."


(* --- causal tracing / flight recorder / profiler -------------------------
   One flag block shared by run, flood, swarm and internet
   (docs/OBSERVABILITY.md, "Causal tracing"). Everything is off by
   default; the observers form the world's context, so the gateways see
   them from construction on. The flags evaluate to the step that builds
   that context from the subcommand's own registry and trace sinks, and
   returns it with the step that exports and prints the observers after
   the run. *)

open Term.Syntax

let obs_term =
  let+ spans_file =
    file_arg "spans"
      "Attach the causal span collector and write the span forest as Chrome \
       trace-event JSON (loadable in Perfetto); also prints the per-stage \
       critical-path summary. See docs/OBSERVABILITY.md, section Causal \
       tracing."
  and+ flight_capacity =
    arg (min_int 0) "flight-recorder" 0 ~docv:"N"
      "Arm the packet flight recorder: a ring buffer of the last N per-hop \
       link records (enqueue/dequeue/drop with queue depth). 0 disables. \
       Dumped automatically on an --slo breach, or at the end of the run \
       with --flight-dump."
  and+ flight_dump =
    switch "flight-dump"
      "Dump the retained flight-recorder records to stderr after the run \
       (on-demand counterpart to the --slo auto-dump)."
  and+ flight_dump_file =
    file_arg "flight-dump-file"
      "Write --slo auto-dumps to FILE instead of stderr. In sharded runs \
       each shard's ring dumps to FILE.shard<i> (records sorted by time, \
       shard, sequence), so concurrent breaches never interleave."
  and+ profile =
    switch "profile"
      "Profile the engine: wall-clock seconds per event category plus the \
       peak event-queue depth, printed after the run and folded into the \
       metrics report when --metrics is given. Wall-clock figures are \
       nondeterministic; the simulated event sequence is unchanged."
  and+ slo =
    Arg.(value & opt (some (pos_float "--slo")) None & info [ "slo" ] ~docv:"SECONDS"
           ~doc:"Latency objective for one filtering request (root opened \
                 at the victim until the long filter lands). A request \
                 completing later than this dumps the flight recorder. \
                 Implies span collection even without --spans.")
  in
  fun metrics trace ->
    let spans =
      if spans_file <> None || slo <> None then Some (Aitf_obs.Span.create ())
      else None
    in
    let flight =
      if flight_capacity > 0 then begin
        let f = Aitf_obs.Flight.create ~capacity:flight_capacity in
        Aitf_obs.Flight.set_dump_path f flight_dump_file;
        Some f
      end
      else None
    in
    (match (spans, slo) with
    | Some t, Some seconds ->
      Aitf_obs.Span.set_slo t ~seconds (fun root ->
          Format.eprintf "-- SLO breach: corr=%d flow=%s took %.3fs (> %gs) --@."
            root.Aitf_obs.Span.corr root.Aitf_obs.Span.flow
            (match root.Aitf_obs.Span.completed_at with
            | Some c -> c -. root.Aitf_obs.Span.opened_at
            | None -> nan)
            seconds;
          Option.iter Aitf_obs.Flight.auto_dump flight)
    | _ -> ());
    let profile = if profile then Some (Aitf_obs.Profile.create ()) else None in
    (* After the run: surface the profiler through the registry (so the
       JSON run report written later carries the hot-path buckets) and
       print it, print the recorder, export the span forest. *)
    let finish ~now =
      Option.iter
        (fun p ->
          Option.iter
            (fun reg ->
              Aitf_obs.Profile.register_metrics p reg ~prefix:"engine.profile")
            metrics;
          print_string (Aitf_obs.Profile.report p))
        profile;
      Option.iter
        (fun f ->
          Printf.printf "flight recorder: %d record(s) seen, last %d retained\n"
            (Aitf_obs.Flight.recorded f)
            (List.length (Aitf_obs.Flight.records f));
          if flight_dump then Aitf_obs.Flight.dump f)
        flight;
      Option.iter
        (fun t ->
          Option.iter
            (fun file ->
              Aitf_obs.Report.write_json file
                (Aitf_obs.Span.to_chrome_trace ~now t);
              Printf.printf "wrote %s (%d request(s) traced)\n" file
                (List.length (Aitf_obs.Span.roots t)))
            spans_file;
          print_string (Aitf_obs.Span.summary t))
        spans
    in
    (Aitf_obs.Obs.create ?metrics ?spans ?flight ?profile ~trace (), finish)

(* No observer flags (replay). *)
let no_obs metrics trace =
  (Aitf_obs.Obs.create ?metrics ~trace (), fun ~now:_ -> ())

(* --- the shared execute step ------------------------------------------------ *)

(* What every scenario subcommand does once its flags are parsed into a
   spec: build the world's observer context, run the spec, print the
   observers and the subcommand's result tables ([tables] sees the
   registry, for --stats), then write the JSON run report (--metrics), the
   sampled metric series (--metrics-csv) and the victim-rate series
   (--csv: file, header line, row format). *)
let execute ?(trace = false) ?metrics ?metrics_csv ?csv obs spec ~tables =
  let registry =
    if metrics <> None || metrics_csv <> None then
      Some (Aitf_obs.Metrics.create ())
    else None
  in
  let ctx, finish =
    obs registry (if trace then [ Aitf_obs.Trace.printing_sink () ] else [])
  in
  let o = Runner.run ~obs:ctx spec in
  let now = Runner.duration spec in
  finish ~now;
  List.iter Table.print (tables registry o.Runner.result);
  Option.iter
    (fun reg ->
      let series =
        Option.fold ~none:[] ~some:Aitf_engine.Sampler.series o.Runner.sampler
      in
      Option.iter
        (fun file ->
          Aitf_obs.Report.write_json file
            (Aitf_obs.Report.make ~meta:o.Runner.meta
               ?parallel:o.Runner.parallel ~series ~now reg);
          let size = Aitf_obs.Metrics.size reg in
          if o.Runner.sampler = None then
            Printf.printf "wrote %s (%d metrics)\n" file size
          else
            Printf.printf "wrote %s (%d metrics, %d series)\n" file size
              (List.length series))
        metrics;
      Option.iter
        (fun file ->
          Aitf_obs.Report.write_file file (Aitf_obs.Report.series_csv series);
          Printf.printf "wrote %s\n" file)
        metrics_csv)
    registry;
  Option.iter
    (fun (file, header, row) ->
      let points = Series.points o.Runner.victim_rate in
      Out_channel.with_open_text file (fun oc ->
          output_string oc header;
          List.iter (fun (t, v) -> output_string oc (row t v)) points);
      Printf.printf "wrote %s (%d samples)\n" file (List.length points))
    csv

let result_table ?(title = "") ?(columns = [ "metric"; "value" ]) rows =
  let table = Table.create ~title ~columns in
  List.iter (fun (k, v) -> Table.add_row table [ k; v ]) rows;
  table

let when_ cond rows = if cond then rows else []

let fluid_row eng =
  let module Fluid = Aitf_flowsim.Fluid in
  ( "fluid aggregates / sources",
    Printf.sprintf "%d / %d" (Fluid.aggregates eng) (Fluid.total_sources eng) )

(* --- run ------------------------------------------------------------------ *)

let run_cmd =
  let term =
    let+ duration = duration 60.
    and+ t_filter =
      arg pos_float "t-filter" ~names:[ "T" ] 6. ~docv:"SECONDS"
        "The blocking interval T every request asks for."
    and+ t_tmp =
      arg pos_float "ttmp" 0.5 ~docv:"SECONDS"
        "Ttmp, the victim gateway's temporary-filter horizon."
    and+ attack_rate = attack_rate 1e6 "Undesired flow rate."
    and+ legit_rate =
      legit_rate 0. "Bystander flow rate sharing the victim tail (0 = none)."
    and+ non_coop =
      arg (min_int 0) "non-coop" 0 ~docv:"K"
        "Number of unresponsive attacker-side gateways."
    and+ strategy =
      Arg.(value & opt strategy_conv Policy.Ignores & info [ "strategy" ]
             ~docv:"complies|ignores|onoff[:T]"
             ~doc:"Attacker host behaviour on a filtering request.")
    and+ td = td
    and+ depth =
      arg (min_int 1) "depth" 3 ~docv:"N" "Gateways per side of the chain."
    and+ seed = seed ()
    and+ no_handshake =
      switch "no-handshake" "Disable the 3-way verification handshake."
    and+ disconnect =
      switch "disconnect" "Enforce disconnection of non-compliant parties."
    and+ trace =
      switch "trace" "Print the protocol event timeline while running."
    and+ csv = csv
    and+ stats =
      switch "stats" "Print per-gateway and per-link statistics after the run."
    and+ metrics = metrics
    and+ metrics_csv =
      file_arg "metrics-csv"
        "Write the sampled metric time series as long-format CSV \
         (metric,time,value)."
    and+ metrics_interval = metrics_interval
    and+ traceback =
      Arg.(value
           & opt (enum [ ("rr", `Path_in_request); ("spie", `Spie); ("ppm", `Ppm) ])
               `Path_in_request
           & info [ "traceback" ] ~docv:"rr|spie|ppm"
               ~doc:"Traceback mechanism: in-packet route record, SPIE \
                     digest queries at the gateway, or probabilistic packet \
                     marking.")
    and+ loss =
      arg prob_float "loss" 0. ~docv:"P"
        "I.i.d. loss probability for control packets crossing the victim's \
         tail circuit (both directions)."
    and+ burst_loss =
      Arg.(value & opt (some (pair_conv "--burst-loss"
                   ~check:(fun v -> v >= 0. && v <= 1.)
                   ~expect:"a probability in [0, 1]")) None
           & info [ "burst-loss" ] ~docv:"P_ENTER:P_EXIT"
               ~doc:"Gilbert-Elliott burst loss on the victim-tail control \
                     channel: per-packet probability of entering / leaving \
                     the all-loss bad state.")
    and+ dup =
      arg prob_float "dup" 0. ~docv:"P"
        "Probability of duplicating a control packet on the victim's tail \
         circuit."
    and+ flap =
      Arg.(value & opt (some (pair_conv "--flap" ~check:(fun v -> v > 0.) ~expect:"> 0")) None
           & info [ "flap" ] ~docv:"PERIOD:DOWN"
               ~doc:"Flap the victim's tail circuit: every PERIOD seconds, \
                     take it down (both directions) for DOWN seconds.")
    and+ ctrl_retries =
      arg (min_int 0) "ctrl-retries" 0 ~docv:"N"
        "Control-plane retransmissions per message beyond the first \
         transmission (0 = single-shot, the classic protocol)."
    and+ ctrl_rto =
      arg pos_float "ctrl-rto" 0.5 ~docv:"SECONDS"
        "Initial control-plane retransmission timeout; doubles on every \
         retry."
    and+ adversary =
      Arg.(value & opt_all adversary_conv [] & info [ "adversary" ]
             ~docv:"PLAYBOOK[:k=v,...]"
             ~doc:"Launch an adversary playbook against the protocol itself \
                   (repeatable): slot-exhaustion, shadow-exhaustion, \
                   request-flood, reply-replay or route-forgery. See \
                   docs/ADVERSARY.md for the knobs of each.")
    and+ overload =
      overload
        "Enable the filter-table overload manager (watermark-driven \
         aggregation and priority eviction under slot pressure)."
    and+ filter_capacity = filter_capacity
    and+ engine = engine
    and+ hybrid_epoch = hybrid_epoch
    and+ probe_rate = probe_rate
    and+ obs = obs_term in
    let config =
      {
        Config.default with
        Config.t_filter;
        t_tmp;
        grace = 0.3;
        min_report_gap = Float.max 0.2 (t_filter /. 30.);
        handshake = not no_handshake;
        disconnect;
        ctrl_retries;
        ctrl_rto;
        filter_capacity;
        overload_manager = overload;
        engine;
        hybrid_epoch;
        hybrid_probe_rate = probe_rate;
      }
    in
    let ctrl_faults =
      let module F = Aitf_fault.Fault in
      when_ (loss > 0.) [ F.Loss loss ]
      @ (match burst_loss with
        | Some (p_enter, p_exit) -> [ F.burst ~p_enter ~p_exit () ]
        | None -> [])
      @ when_ (dup > 0.) [ F.Duplicate dup ]
    in
    let params =
      {
        Scenarios.default_chain with
        Scenarios.spec = { Aitf_topo.Chain.default_spec with depth };
        config;
        seed;
        duration;
        attack_rate;
        legit_rate;
        n_non_coop_gws = non_coop;
        attacker_strategy = strategy;
        td;
        traceback;
        sample_period =
          sample_period metrics_interval
            ~default:Scenarios.default_chain.Scenarios.sample_period;
        ctrl_faults;
        tail_flap = flap;
        adversaries = adversary;
        in_pool_legit_rate = (if adversary <> [] then legit_rate /. 10. else 0.);
      }
    in
    let tables registry (r : Scenarios.chain_result) =
      let open Scenarios in
      let d = r.deployed in
      result_table ~title:"scenario result"
        ([
           ("attack offered (bytes)", Printf.sprintf "%.0f" r.attack_offered_bytes);
           ("attack received (bytes)", Printf.sprintf "%.0f" r.attack_received_bytes);
           ("effective bandwidth ratio r", Printf.sprintf "%.5f" r.r_measured);
           ( "paper bound n(Td+Tr)/T",
             Printf.sprintf "%.5f"
               (Formulas.effective_bandwidth_ratio ~n:(non_coop + 1) ~td
                  ~tr:Aitf_topo.Chain.default_spec.Aitf_topo.Chain.access_delay
                  ~t_filter) );
         ]
        @ when_ (legit_rate > 0.)
            [
              ( "legit received / offered",
                Printf.sprintf "%.0f / %.0f" r.good_received_bytes
                  r.good_offered_bytes );
            ]
        @ [
            ("filtering requests sent", string_of_int r.requests_sent);
            ("escalations", string_of_int r.escalations);
          ]
        @ when_
            (ctrl_faults <> [] || flap <> None || ctrl_retries > 0)
            [
              ("control packets dropped by faults", string_of_int r.faults_injected);
              ("victim request retransmissions", string_of_int r.requests_retransmitted);
              ("gateway ctrl retransmissions", string_of_int r.ctrl_retransmits);
              ("gateway retry budgets exhausted", string_of_int r.ctrl_gave_up);
            ]
        @ [
            ( "time to suppression (s)",
              match time_to_suppress r ~threshold:0.05 with
              | Some t -> Printf.sprintf "%.2f" t
              | None -> "never" );
            ("events processed", string_of_int r.events_processed);
          ]
        @ (match r.fluid with
          | Some eng ->
            [
              fluid_row eng;
              ("fluid share recomputes", string_of_int (Fluid.recomputes eng));
            ]
          | None -> [])
        @ List.map
            (fun h ->
              let module A = Aitf_adversary.Adversary in
              ( Printf.sprintf "adversary %s" (A.kind (A.playbook h)),
                Printf.sprintf "pkts=%d reqs=%d replays=%d guesses=%d forged=%d"
                  (A.packets_sent h) (A.requests_sent h) (A.replays_sent h)
                  (A.guesses_sent h) (A.stamps_forged h) ))
            r.adversary_handles
        @ when_ overload
            [
              ("overload aggregations", string_of_int r.overload_aggregations);
              ("overload evictions", string_of_int r.overload_evictions);
              ( "collateral (pkts / bytes)",
                Printf.sprintf "%d / %d" r.collateral_packets r.collateral_bytes );
            ])
      :: when_ stats
           ([
              Aitf_workload.Report.gateway_table
                (d.Aitf_topo.Chain.victim_gateways
                @ d.Aitf_topo.Chain.attacker_gateways);
              Aitf_workload.Report.link_table
                d.Aitf_topo.Chain.topo.Aitf_topo.Chain.net;
            ]
           @ Option.to_list (Option.map Aitf_workload.Report.metrics_table registry))
    in
    let csv =
      Option.map
        (fun f -> (f, "time,attack_bps\n", Printf.sprintf "%.3f,%.1f\n"))
        csv
    in
    execute ~trace ?metrics ?metrics_csv ?csv obs (Runner.Chain params) ~tables
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a single-attacker Figure-1 scenario.")
    term

(* --- flood ------------------------------------------------------------------ *)

let flood_cmd =
  let count name default doc = arg (min_int 1) name default doc in
  let term =
    let+ isps = count "isps" 3 "Number of ISPs."
    and+ nets = count "nets" 3 "Enterprise networks per ISP."
    and+ hosts = count "hosts" 3 "Hosts per enterprise."
    and+ zombies = arg (min_int 0) "zombies" 12 "Size of the zombie army."
    and+ rate =
      arg nonneg_float "zombie-rate" 1e6 ~docv:"BITS/S" "Per-zombie attack rate."
    and+ duration = duration 20.
    and+ seed = seed ()
    and+ no_aitf = switch "no-aitf" "Run without any defense."
    and+ metrics = metrics
    and+ metrics_interval = metrics_interval
    and+ engine = engine
    and+ obs = obs_term in
    let d = Scenarios.default_flood in
    let spec =
      Runner.Flood
        {
          d with
          Scenarios.hierarchy =
            {
              Aitf_topo.Hierarchy.default_spec with
              Aitf_topo.Hierarchy.isps;
              nets_per_isp = nets;
              hosts_per_net = hosts;
            };
          flood_config = { d.Scenarios.flood_config with Config.engine };
          zombies;
          zombie_rate = rate;
          flood_duration = duration;
          flood_seed = seed;
          with_aitf = not no_aitf;
          flood_sample_period =
            sample_period metrics_interval
              ~default:d.Scenarios.flood_sample_period;
        }
    in
    let tables _ (r : Scenarios.flood_result) =
      let open Scenarios in
      [
        result_table ~title:"flood result"
          ([
             ("zombies placed", string_of_int r.zombies_placed);
             ( "legit received / offered",
               Printf.sprintf "%.0f / %.0f (%.0f%%)" r.legit_received_bytes
                 r.legit_offered_bytes
                 (100. *. r.legit_received_bytes
                 /. Float.max 1. r.legit_offered_bytes) );
             ( "attack bytes reaching victim",
               Printf.sprintf "%.0f" r.flood_attack_received_bytes );
           ]
          @ (match r.victim with
            | Some v ->
              [ ("victim requests", string_of_int (Host_agent.Victim.requests_sent v)) ]
            | None -> [])
          @ when_ (not no_aitf)
              [
                ("filter installs at enterprise gateways", string_of_int r.leaf_filters);
                ("filters at ISP gateways", string_of_int r.isp_filters);
              ]
          @ [ ("events processed", string_of_int r.flood_events) ]
          @ Option.to_list (Option.map fluid_row r.flood_fluid));
      ]
    in
    execute ?metrics obs spec ~tables
  in
  Cmd.v
    (Cmd.info "flood"
       ~doc:"Simulate a zombie army flooding a server in a provider hierarchy.")
    term

(* --- swarm ------------------------------------------------------------------ *)

let swarm_cmd =
  let term =
    let+ sources = sources 1000 "Total attacking sources across the spoofed pools."
    and+ pools =
      arg (min_int 1) "pools" 4 ~docv:"N"
        "Origin pool nodes (1..16), one fluid aggregate each."
    and+ attack_rate = attack_rate 20e6 "Total attack rate summed over every source."
    and+ legit_rate =
      legit_rate 1e6 "Bystander rate sharing the victim tail (0 = none)."
    and+ duration = duration 30.
    and+ seed = seed ()
    and+ td = td
    and+ hybrid_epoch = hybrid_epoch
    and+ probe_rate = probe_rate
    and+ metrics = metrics
    and+ metrics_interval = metrics_interval
    and+ obs = obs_term in
    let d = Scenarios.default_swarm in
    let spec =
      Runner.Swarm
        {
          d with
          Scenarios.swarm_config =
            {
              d.Scenarios.swarm_config with
              Config.hybrid_epoch;
              hybrid_probe_rate = probe_rate;
            };
          swarm_seed = seed;
          swarm_duration = duration;
          swarm_sources = sources;
          swarm_pools = pools;
          swarm_attack_rate = attack_rate;
          swarm_legit_rate = legit_rate;
          swarm_td = td;
          swarm_sample_period =
            sample_period metrics_interval
              ~default:d.Scenarios.swarm_sample_period;
        }
    in
    let tables _ (r : Scenarios.swarm_result) =
      let open Scenarios in
      [
        result_table ~title:"swarm result"
          [
            ("sources / pools", Printf.sprintf "%d / %d" sources pools);
            ( "legit received / offered",
              Printf.sprintf "%.0f / %.0f" r.swarm_good_received_bytes
                r.swarm_good_offered_bytes );
            ( "attack bytes reaching victim",
              Printf.sprintf "%.0f" r.swarm_attack_received_bytes );
            ("filtering requests sent", string_of_int r.swarm_requests_sent);
            ("filter installs (all gateways)", string_of_int r.swarm_filters);
            ("requests absorbed at pools", string_of_int r.swarm_absorbed);
            fluid_row r.swarm_fluid;
            ("events processed", string_of_int r.swarm_events);
          ];
      ]
    in
    execute ?metrics obs spec ~tables
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:"Scale a spoofed-source swarm over fluid aggregates against the \
             Figure-1 chain (hybrid engine).")
    term

(* --- internet --------------------------------------------------------------- *)

let internet_cmd =
  let module As_graph = Aitf_topo.As_graph in
  let module As_scenario = Aitf_workload.As_scenario in
  let module Placement_ctl = Aitf_workload.Placement_ctl in
  let module Auditor = Aitf_contract.Auditor in
  let g = As_graph.default_spec in
  let contract_rate name doc =
    Arg.(value & opt (some (pos_float ("--" ^ name))) None
         & info [ name ] ~docv:"REQ/S" ~doc)
  in
  let term =
    let+ domains =
      arg (min_int 3) "domains" 1000 ~docv:"N"
        "Gateway domains in the generated AS graph (<= 16384)."
    and+ tier1 =
      arg (min_int 2) "tier1" g.As_graph.tier1 ~docv:"N"
        "Fully-meshed tier-1 providers at the top of the graph."
    and+ multihome =
      arg (min_int 1) "multihome" g.As_graph.multihome ~docv:"N"
        "Provider uplinks per non-tier-1 domain."
    and+ peer_p =
      arg prob_float "peer-p" g.As_graph.peer_p ~docv:"P"
        "Probability a new domain adds one lateral peer link."
    and+ placement =
      Arg.(value & opt placement_conv Placement.Vanilla
           & info [ "placement" ] ~docv:"POLICY"
               ~doc:"Filter-placement policy: $(b,vanilla) (classic AITF \
                     escalate-upstream), $(b,optimal) (per-epoch optimal \
                     filter selection) or $(b,adaptive) (feedback-driven \
                     frontier walking). See docs/PLACEMENT.md.")
    and+ placement_epoch =
      arg pos_float "placement-epoch" Config.default.Config.placement_epoch
        ~docv:"SECONDS" "Managed-placement controller decision period."
    and+ sources =
      sources 100_000 "Total attack sources spread over the attack domains."
    and+ attack_domains =
      arg (min_int 1) "attack-domains" 40 ~docv:"N"
        "Domains hosting an attack source pool."
    and+ legit_sources =
      arg (min_int 0) "legit-sources" 10_000 ~docv:"N"
        "Total legitimate sources spread over the legit domains."
    and+ legit_domains =
      arg (min_int 1) "legit-domains" 10 ~docv:"N"
        "Domains hosting a legitimate source pool."
    and+ attack_rate =
      attack_rate 200e6 "Total attack rate summed over every source."
    and+ legit_rate = legit_rate 5e6 "Total legitimate rate towards the victim."
    and+ duration = duration 30.
    and+ seed = seed ~doc:"Deterministic seed (graph, pools and placement)." ()
    and+ td = td
    and+ overload =
      overload
        "Enable the filter-table overload manager (watermarks, prefix \
         aggregation, priority eviction) on every gateway."
    and+ filter_capacity = filter_capacity
    and+ metrics = metrics
    and+ contracts =
      switch "contracts"
        "Enable verifiable filtering contracts: signed requests, install \
         receipts, a victim-side auditor and Byzantine-gateway failover \
         (docs/CONTRACTS.md)."
    and+ byzantine_fraction =
      arg prob_float "byzantine-fraction" 0. ~docv:"P"
        "Fraction of on-path gateways corrupted into the lying mode at \
         setup (needs $(b,--contracts))."
    and+ lying_mode =
      Arg.(value & opt lying_mode_conv Aitf_adversary.Adversary.Accept_ignore
           & info [ "lying-mode" ] ~docv:"MODE"
               ~doc:"How corrupted gateways cheat: $(b,accept-ignore), \
                     $(b,partial)[:leak bytes/s], $(b,forge) or $(b,replay).")
    and+ contract_r1 =
      contract_rate "contract-r1"
        "Provider-side contract: admit client filtering requests at R1 per \
         second (default: the paper's 100/s when only $(b,--contract-r2) \
         is given)."
    and+ contract_r2 =
      contract_rate "contract-r2"
        "Provider-side contract: cap counter-requests towards the client \
         at R2 per second (default: the paper's 1/s when only \
         $(b,--contract-r1) is given)."
    and+ audit_deadline =
      arg pos_float "audit-deadline" Auditor.default_config.Auditor.deadline
        ~docv:"SECONDS"
        "Auditor: how long a gateway has to produce its first receipt. Set \
         below the temp-filter lifetime to catch accept-then-ignore liars \
         that blind escalation would paper over."
    and+ audit_grace =
      arg pos_float "audit-grace" Auditor.default_config.Auditor.grace
        ~docv:"SECONDS"
        "Auditor: arrivals within this window of a valid receipt (or of the \
         audit tick) still count as in-flight, not as evidence. Must stay \
         below the deadline."
    and+ shards =
      arg (min_int 1) "shards" 1 ~docv:"N"
        "Simulation shards for the parallel engine (docs/PARALLEL.md). 1 \
         (the default) is the sequential engine, bit-identical to earlier \
         releases; N > 1 partitions the domains over N event-queue shards \
         synchronized by conservative lookahead windows — deterministic \
         for a fixed (seed, N), with outcome scalars that vary slightly \
         across shard counts. Observability composes: --spans, \
         --flight-recorder, --metrics and --contracts all work at any N \
         (per-shard collectors merged deterministically after the run; see \
         docs/OBSERVABILITY.md)."
    and+ obs = obs_term in
    let spec =
      Runner.Internet
        {
          As_scenario.default with
          As_scenario.as_spec =
            { g with As_graph.domains; tier1; multihome; peer_p };
          as_config =
            {
              Config.default with
              Config.engine = Config.Hybrid;
              placement;
              placement_epoch;
              overload_manager = overload;
              aggregate_on_pressure = overload;
              filter_capacity;
            };
          as_seed = seed;
          as_duration = duration;
          as_sources = sources;
          as_attack_domains = attack_domains;
          as_legit_domains = legit_domains;
          as_legit_sources = legit_sources;
          as_attack_rate = attack_rate;
          as_legit_rate = legit_rate;
          as_td = td;
          as_contracts = contracts;
          as_byzantine_fraction = byzantine_fraction;
          as_lying_mode = lying_mode;
          as_contract =
            (match (contract_r1, contract_r2) with
            | None, None -> None
            | r1, r2 ->
              let d = Contract.paper_default in
              Some
                (Contract.v
                   ~r1:(Option.value r1 ~default:d.Contract.r1)
                   ~r2:(Option.value r2 ~default:d.Contract.r2)
                   ()));
          as_audit =
            { Auditor.default_config with Auditor.deadline = audit_deadline;
              grace = audit_grace };
          as_shards = shards;
        }
    in
    let tables _ (r : As_scenario.result) =
      let open As_scenario in
      let count n = string_of_int n in
      [
        result_table
          ~title:
            (Printf.sprintf "internet result (%s placement)"
               (Placement.policy_to_string placement))
          ([
             ( "domains / attack / legit",
               Printf.sprintf "%d / %d / %d" domains attack_domains legit_domains );
             ("sources (attack / legit)", Printf.sprintf "%d / %d" sources legit_sources);
             ("victim domain", count r.r_victim_domain);
             ( "time-to-filter (s)",
               match r.r_time_to_filter with
               | Some t -> Printf.sprintf "%.2f" t
               | None -> "never" );
             ( "collateral damage",
               Printf.sprintf "%.1f%%" (100. *. r.r_collateral_fraction) );
             ( "legit received / offered (MB)",
               Printf.sprintf "%.2f / %.2f" (r.r_good_received_bytes /. 1e6)
                 (r.r_good_offered_bytes /. 1e6) );
             ( "attack bytes reaching victim (MB)",
               Printf.sprintf "%.2f" (r.r_attack_received_bytes /. 1e6) );
             ("filter slots (peak, all gateways)", count r.r_slots_peak);
             ("filter installs (all gateways)", count r.r_filters_installed);
             ("filtering requests sent", count r.r_requests_sent);
           ]
          @ (match r.r_ctl with
            | Some ctl ->
              [
                ("placement reports", count (Placement_ctl.evidence ctl));
                ("placement installs", count (Placement_ctl.installs ctl));
                ("placement reclaims", count (Placement_ctl.reclaims ctl));
                ("placement frontier pushes", count (Placement_ctl.pushes ctl));
              ]
            | None -> [ ("requests absorbed at pools", count r.r_absorbed) ])
          @ (match verdict r with
            | Some v ->
              let n l = List.length l in
              [
                ("byzantine gateways (corrupted)", count (n v.v_byzantine));
                ( "gateways flagged / missed / false-pos",
                  Printf.sprintf "%d / %d / %d" (n v.v_flagged) (n v.v_missed)
                    (n v.v_false_positives) );
                ( "receipts verified / rejected",
                  Printf.sprintf "%d / %d" v.v_receipts_verified
                    v.v_receipts_rejected );
                ("contract failovers", count r.r_failovers);
              ]
            | None -> [])
          @ [ ("events processed", count r.r_events) ]
          @
          let module Sched = Aitf_parallel.Sched in
          let st = r.r_sched_stats in
          when_ (shards > 1)
            [
              ("shards", count shards);
              ( "sync windows (shard / global)",
                Printf.sprintf "%d / %d" st.Sched.windows st.Sched.global_batches );
              ("cross-shard messages", count st.Sched.messages);
              ("deferred mutations", count st.Sched.deferred);
              ("barrier stall (s)", Printf.sprintf "%.3f" st.Sched.stall_seconds);
            ]);
      ]
    in
    execute ?metrics obs spec ~tables
  in
  Cmd.v
    (Cmd.info "internet"
       ~doc:"DDoS a victim on a generated AS-level Internet (power-law \
             degree, valley-free routing, fluid source pools) under a \
             pluggable filter-placement policy.")
    term

(* --- formulas --------------------------------------------------------------- *)

let formulas_cmd =
  let term =
    let+ r1 = arg nonneg_float "r1" 100. "Client->provider request rate R1 (1/s)."
    and+ r2 = arg nonneg_float "r2" 1. "Provider->client request rate R2 (1/s)."
    and+ t_filter = arg pos_float "t-filter" ~names:[ "T" ] 60. "Blocking interval T (s)."
    and+ t_tmp = arg pos_float "ttmp" 0.6 "Temporary filter horizon Ttmp (s)."
    and+ td = arg nonneg_float "td" 0. "Detection delay Td (s)."
    and+ tr = arg nonneg_float "tr" 0.05 "Victim->gateway one-way delay Tr (s)."
    and+ n = arg (min_int 0) "n" 1 "Non-cooperating AITF nodes on the path." in
    Table.print
      (result_table ~title:"Section IV formulas" ~columns:[ "quantity"; "value" ]
         [
           ( "r = n(Td+Tr)/T",
             Printf.sprintf "%.6f"
               (Formulas.effective_bandwidth_ratio ~n ~td ~tr ~t_filter) );
           ( "Nv = R1*T (protected flows)",
             string_of_int (Formulas.protected_flows ~r1 ~t_filter) );
           ( "nv = R1*Ttmp (victim-gw filters)",
             string_of_int (Formulas.victim_gateway_filters ~r1 ~t_tmp) );
           ( "mv = R1*T (victim-gw shadow)",
             string_of_int (Formulas.victim_gateway_shadow ~r1 ~t_filter) );
           ( "na = R2*T (attacker-side filters)",
             string_of_int (Formulas.attacker_gateway_filters ~r2 ~t_filter) );
           ( "min Ttmp (traceback + handshake)",
             Printf.sprintf "%.3f"
               (Formulas.min_t_tmp ~traceback_time:0. ~handshake_time:0.6) );
         ])
  in
  Cmd.v (Cmd.info "formulas" ~doc:"Evaluate the paper's closed-form model.") term

(* --- matrix ----------------------------------------------------------------- *)

let matrix_cmd =
  let module Matrix = Aitf_workload.Matrix in
  let term =
    let+ goldens =
      Arg.(value & opt string "test/goldens" & info [ "goldens" ] ~docv:"DIR"
             ~doc:"Directory holding the checked-in golden documents.")
    and+ bless =
      switch "bless"
        "Regenerate the goldens from this run instead of comparing (the \
         intentional-change path; see docs/GOLDENS.md)."
    and+ smoke = switch "smoke" "Run only the reduced CI cell set."
    and+ only =
      Arg.(value & opt_all string [] & info [ "only" ] ~docv:"CELL"
             ~doc:"Run only the named cell (repeatable).")
    and+ bench_json =
      file_arg "bench-json"
        "Write the per-cell perf trajectory (wall-clock, allocated bytes, \
         peak queue depth, engine events; schema aitf.matrix-bench/1) — \
         what CI uploads as BENCH_E19.json."
    and+ list = switch "list" "List the cell ids and exit."
    and+ shards =
      arg (min_int 1) "shards" 1 ~docv:"N"
        "Run the unpinned internet cells (contract cells included) on the \
         parallel engine with N shards; -shard<K> cells keep their pinned \
         count. Span tracing stays on — the per-cell span_digest in \
         --bench-json is shard-invariant. Sharded documents still differ \
         from the 1-shard goldens in outcome scalars, so pair with --bless \
         into a scratch --goldens directory — the determinism-stress regime \
         CI uses. See docs/PARALLEL.md." in
    if list then
      List.iter
        (fun c ->
          Printf.printf "%s%s\n" c.Matrix.id
            (if c.Matrix.smoke then "  [smoke]" else ""))
        Matrix.cells
    else begin
      let s = Matrix.run ~only ~smoke ~bless ~shards ~goldens_dir:goldens () in
      Matrix.print_summary s;
      Option.iter
        (fun file ->
          Aitf_obs.Report.write_json file (Matrix.bench_json s);
          Printf.printf "wrote %s\n" file)
        bench_json;
      if s.Matrix.s_drifted > 0 || s.Matrix.s_disagreements > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Run the golden-trace differential matrix: every topology x \
             engine x fault x adversary x placement cell, byte-compared \
             against checked-in goldens, with the packet-vs-hybrid \
             agreement gate. Exits non-zero on golden drift or a gated \
             disagreement.")
    term

(* --- replay ------------------------------------------------------------------ *)

let replay_cmd =
  let module Replay = Aitf_workload.Replay in
  let term =
    let+ shape =
      Arg.(value
           & opt (enum [ ("pulse", `Pulse); ("churn", `Churn);
                         ("booter", `Booter); ("carpet", `Carpet) ]) `Pulse
           & info [ "shape" ] ~docv:"pulse|churn|booter|carpet"
               ~doc:"Attack shape the trace synthesizer generates (ignored \
                     with --trace-in).")
    and+ trace_in =
      file_arg "trace-in" "Replay this trace file instead of synthesizing one."
    and+ emit =
      switch "emit-trace"
        "Print the canonical trace to stdout and exit without running it."
    and+ engine = engine
    and+ seed = seed ~doc:"Synthesizer seed." ()
    and+ duration = duration 30.
    and+ rate =
      arg nonneg_float "rate" 20e6 ~docv:"BITS/S" "Total attack rate per pool."
    and+ n = arg (min_int 1) "sources" ~names:[ "n" ] 64 ~docv:"K" "Sources per pool."
    and+ csv = csv in
    let trace =
      match trace_in with
      | Some file -> (
        match Replay.parse (In_channel.with_open_bin file In_channel.input_all) with
        | Ok t -> t
        | Error e ->
          Printf.eprintf "aitf_sim replay: %s: %s\n" file e;
          exit 1)
      | None -> (
        match shape with
        | `Pulse -> Replay.synth_pulse ~seed ~duration ~rate ~n ()
        | `Churn -> Replay.synth_churn ~seed ~duration ~rate ~n ()
        | `Booter -> Replay.synth_booter ~seed ~duration ~rate ~n ()
        | `Carpet -> Replay.synth_carpet ~seed ~duration ~rate ~n ())
    in
    if emit then print_string (Replay.to_string trace)
    else begin
      let mb x = Printf.sprintf "%.2f" (x /. 1e6) in
      let tables _ (r : Replay.result) =
        let open Replay in
        [
          result_table ~title:"replay result" ~columns:[ "quantity"; "value" ]
            [
              ("engine", if engine = Config.Hybrid then "hybrid" else "packet");
              ("pools", string_of_int (List.length trace.tr_pools));
              ("events", string_of_int (List.length trace.tr_events));
              ("attack offered (MB)", mb r.rr_attack_offered_bytes);
              ("attack received (MB)", mb r.rr_attack_received_bytes);
              ("good offered (MB)", mb r.rr_good_offered_bytes);
              ("good received (MB)", mb r.rr_good_received_bytes);
              ("requests sent", string_of_int r.rr_requests_sent);
              ("filters installed", string_of_int r.rr_filters);
              ("requests absorbed", string_of_int r.rr_absorbed);
              ("engine events", string_of_int r.rr_events);
            ];
        ]
      in
      let spec = Runner.Replay ({ Config.default with Config.engine }, trace) in
      let csv =
        Option.map
          (fun f -> (f, "time,attack_bits_per_s\n", Printf.sprintf "%g,%g\n"))
          csv
      in
      execute ?csv no_obs spec ~tables
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Drive a trace-driven attack (pulsing, churn, booter bursts, \
             carpet bombing — synthesized or from a file) through either \
             engine.")
    term

let () =
  (* The process's one wall clock: parallel-engine barrier stalls and the
     golden matrix's per-cell timings read it (the library default is
     process CPU time, which sums over domains). *)
  Aitf_parallel.Sched.set_default_clock Unix.gettimeofday;
  let info =
    Cmd.info "aitf_sim" ~version:"1.0.0"
      ~doc:"Active Internet Traffic Filtering simulator (Argyraki & Cheriton)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; flood_cmd; swarm_cmd; internet_cmd; matrix_cmd;
            replay_cmd; formulas_cmd;
          ]))
