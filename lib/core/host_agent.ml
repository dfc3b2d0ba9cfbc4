module Sim = Aitf_engine.Sim
module Trace = Aitf_obs.Trace
module Obs = Aitf_obs.Obs
module Rate_meter = Aitf_stats.Rate_meter
module Ppm = Aitf_traceback.Ppm
module Span = Aitf_obs.Span
module Timer = Aitf_engine.Timer
open Aitf_net
open Aitf_filter

type path_source =
  | From_route_record
  | From_ppm of Ppm.Collector.t
  | Gateway_traceback

module Victim = struct
  (* The victim's log of undesired flow labels (§IV-A.1): one record per
     flow, keyed by the host-pair label of its attack packets, carrying
     everything detection, requests, retries and handshake confirmation
     need to know about it. *)
  type flow = {
    label : Flow_label.t;
    corr : int;
        (* correlation id minted on the flow's first packet — the key every
           span of the flow's filtering request hangs from. Minted
           unconditionally (a plain counter, no randomness) so traced and
           untraced runs make identical random/scheduling decisions. *)
    mutable bytes : float;
    mutable detection : Detection.state;
    mutable last_seen : float;
        (* when an attack packet of this flow last arrived — the evidence
           the retransmitter reads: still arriving => request had no effect *)
    mutable requested_until : float;
        (* expiry of the last request sent for the flow ([neg_infinity]:
           never requested); handshake queries are confirmed until then *)
    mutable retrying : bool;
        (* a retransmission schedule is armed, to avoid overlap *)
    mutable awaiting_path : bool;
        (* detected, request held until the PPM path converges *)
  }

  type t = {
    net : Network.t;
    sim : Sim.t;
    node : Node.t;
    gateway : Addr.t;
    config : Config.t;
    path_source : path_source;
    td : float;
    bucket : Token_bucket.t;
    flows : (Flow_label.t, flow) Hashtbl.t;
    mutable awaiting : int;  (* flows with [awaiting_path] set *)
    attack_meter : Rate_meter.t;
    good_meter : Rate_meter.t;
    mutable signer : (Bytes.t -> int64) option;
        (* contract layer: keyed digest over canonical request bytes *)
    mutable receipt_sink : (Message.receipt -> unit) option;
    mutable request_observer : (Message.request -> unit) option;
    mutable arrival_observer : (Flow_label.t -> float -> unit) option;
        (* the auditor's evidence feed: every attack arrival, with time *)
    mutable last_ppm_path : Addr.t list option;
    mutable ppm_stable : int;
    mutable attack_packets : int;
    mutable good_packets : int;
    mutable requests_sent : int;
    mutable requests_suppressed : int;
    mutable requests_retransmitted : int;
    mutable requests_gave_up : int;
    mutable queries_answered : int;
  }

  let node t = t.node

  let trace t fmt =
    Trace.emitf (Sim.obs t.sim).Obs.trace ~time:(Sim.now t.sim)
      ~category:t.node.Node.name fmt

  let spans t = (Sim.obs t.sim).Obs.spans

  let send t ~dst payload =
    Network.originate t.net t.node
      (Message.packet ~src:t.node.Node.addr ~dst payload)

  let requested_live t r = Sim.now t.sim < r.requested_until

  let request_message t r path =
    let req =
      {
        Message.flow = r.label;
        target = Message.To_victim_gateway;
        duration = t.config.Config.t_filter;
        path;
        hops = 0;
        requestor = t.node.Node.addr;
        corr = r.corr;
        auth = 0L;
      }
    in
    match t.signer with
    | None -> req
    | Some sign -> (
      match Wire.signing_bytes (Message.Filtering_request req) with
      | Ok b -> { req with Message.auth = sign b }
      | Error _ -> req)

  let suppressed t r =
    t.requests_suppressed <- t.requests_suppressed + 1;
    Span.event (spans t) ~node:t.node.Node.name ~corr:r.corr
      ~now:(Sim.now t.sim) "request-suppressed"

  (* The request to the gateway crosses the very tail circuit the attack is
     flooding, so it is the likeliest control message to drown. While the
     flow keeps arriving after a request (evidence the request, or its
     effect, was lost), resend with exponential backoff up to the retry
     cap. Retransmissions consume the same R1 bucket as fresh requests —
     reliability must not become a way around the contract. *)
  let arm_retry t r path =
    if t.config.Config.ctrl_retries > 0 && not r.retrying then begin
      r.retrying <- true;
      let sent_at = ref (Sim.now t.sim) in
      ignore
        (Timer.backoff ~label:"victim-retry" t.sim ~rto:t.config.Config.ctrl_rto
           ~factor:t.config.Config.ctrl_backoff
           ~retries:t.config.Config.ctrl_retries
           ~evidence:(fun () ->
             r.retrying <- requested_live t r && r.last_seen > !sent_at;
             r.retrying)
           ~resend:(fun attempt ->
             if Token_bucket.allow t.bucket ~now:(Sim.now t.sim) then begin
               t.requests_retransmitted <- t.requests_retransmitted + 1;
               Span.event (spans t) ~node:t.node.Node.name ~corr:r.corr
                 ~now:(Sim.now t.sim) "victim-retransmit";
               trace t "re-requesting block of %a (attempt %d)" Flow_label.pp
                 r.label (attempt + 1);
               send t ~dst:t.gateway
                 (Message.Filtering_request (request_message t r path))
             end
             else suppressed t r;
             sent_at := Sim.now t.sim)
           ~give_up:(fun () ->
             t.requests_gave_up <- t.requests_gave_up + 1;
             Span.event (spans t) ~node:t.node.Node.name ~corr:r.corr
               ~now:(Sim.now t.sim) "victim-gave-up";
             r.retrying <- false))
    end

  let send_request t r path =
    if Token_bucket.allow t.bucket ~now:(Sim.now t.sim) then begin
      t.requests_sent <- t.requests_sent + 1;
      r.requested_until <- Sim.now t.sim +. t.config.Config.t_filter;
      trace t "requesting block of %a" Flow_label.pp r.label;
      Span.start (spans t) ~corr:r.corr ~stage:Span.Request
        ~node:t.node.Node.name ~now:(Sim.now t.sim);
      let req = request_message t r path in
      (match t.request_observer with Some f -> f req | None -> ());
      send t ~dst:t.gateway (Message.Filtering_request req);
      arm_retry t r path
    end
    else suppressed t r

  (* PPM reconstructions start as prefixes of the true path (the victim-
     nearest edges converge first), so a path is only trusted once it has
     been identical across several consecutive observations. *)
  let ppm_stability_threshold = 5

  let ppm_path_ready t collector =
    let p = Ppm.Collector.reconstruct collector in
    if p <> None && p = t.last_ppm_path then
      t.ppm_stable <- t.ppm_stable + 1
    else begin
      t.last_ppm_path <- p;
      t.ppm_stable <- 0
    end;
    if t.ppm_stable >= ppm_stability_threshold then p else None

  (* Detection fired (first time after Td, or instantly on reappearance):
     assemble the attack path per the configured traceback source. *)
  let on_detect t r (pkt : Packet.t) =
    r.detection <- Detection.Reported (Sim.now t.sim);
    Span.finish (spans t) ~node:t.node.Node.name ~corr:r.corr
      ~stage:Span.Detect ~now:(Sim.now t.sim) ();
    match t.path_source with
    | From_route_record -> send_request t r pkt.route_record
    | Gateway_traceback -> send_request t r []
    | From_ppm collector -> (
      match ppm_path_ready t collector with
      | Some path -> send_request t r path
      | None ->
        if not r.awaiting_path then begin
          r.awaiting_path <- true;
          t.awaiting <- t.awaiting + 1
        end)

  (* PPM convergence: retry pending reconstructions as marks accumulate. *)
  let retry_awaiting t collector =
    if t.awaiting > 0 then begin
      match ppm_path_ready t collector with
      | None -> ()
      | Some path ->
        Hashtbl.fold
          (fun _ r acc -> if r.awaiting_path then r :: acc else acc)
          t.flows []
        (* requests fire in label order, not hash-bucket order *)
        |> List.sort (fun a b -> Flow_label.compare a.label b.label)
        |> List.iter (fun r ->
               r.awaiting_path <- false;
               t.awaiting <- t.awaiting - 1;
               send_request t r path)
    end

  let observe_attack t (pkt : Packet.t) =
    let now = Sim.now t.sim in
    t.attack_packets <- t.attack_packets + 1;
    Rate_meter.add t.attack_meter ~now (float_of_int pkt.size);
    let label = Flow_label.host_pair pkt.src pkt.dst in
    let r =
      match Hashtbl.find_opt t.flows label with
      | Some r -> r
      | None ->
        (* First attack packet of this flow: log it, mint its correlation
           id and open its request tree. Detection starts counting here. *)
        let corr = Obs.mint (Sim.obs t.sim) in
        let r =
          {
            label;
            corr;
            bytes = 0.;
            detection = Detection.Unseen;
            last_seen = now;
            requested_until = neg_infinity;
            retrying = false;
            awaiting_path = false;
          }
        in
        Hashtbl.replace t.flows label r;
        if Option.is_some (spans t) then begin
          Span.root (spans t) ~corr
            ~flow:(Format.asprintf "%a" Flow_label.pp label)
            ~victim:t.node.Node.name ~now;
          Span.start (spans t) ~corr ~stage:Span.Detect ~node:t.node.Node.name
            ~now
        end;
        r
    in
    (* Side effects in this order — flow minted, last arrival, arrival
       observer, PPM, detection — which fixes the order of the events they
       schedule. *)
    r.bytes <- r.bytes +. float_of_int pkt.size;
    r.last_seen <- now;
    (match t.arrival_observer with Some f -> f label now | None -> ());
    (match t.path_source with
    | From_ppm collector ->
      Ppm.Collector.observe collector pkt;
      retry_awaiting t collector
    | From_route_record | Gateway_traceback -> ());
    match
      Detection.on_packet ~min_report_gap:t.config.Config.min_report_gap ~now
        r.detection
    with
    | Detection.Arm_td ->
      r.detection <- Detection.Pending;
      ignore
        (Sim.after ~label:"detection-td" t.sim t.td (fun () ->
             on_detect t r pkt))
    | Detection.Report -> on_detect t r pkt
    | Detection.Wait -> ()

  (* "Do you really not want this flow?" — confirm iff we asked. *)
  let answer_query t ~src flow ~nonce =
    match Hashtbl.find_opt t.flows flow with
    | Some r when requested_live t r ->
      t.queries_answered <- t.queries_answered + 1;
      Span.event (spans t) ~node:t.node.Node.name ~corr:r.corr
        ~now:(Sim.now t.sim) "victim-confirmed";
      send t ~dst:src (Message.Verification_reply { flow; nonce })
    | Some _ | None -> ()

  let requested t flow =
    match Hashtbl.find_opt t.flows flow with
    | Some r -> requested_live t r
    | None -> false

  let deliver t prev (node : Node.t) (pkt : Packet.t) =
    match pkt.payload with
    | Packet.Data { attack = true; _ } -> observe_attack t pkt
    | Packet.Data _ ->
      t.good_packets <- t.good_packets + 1;
      Rate_meter.add t.good_meter ~now:(Sim.now t.sim) (float_of_int pkt.size)
    | Message.Verification_query { flow; nonce } ->
      answer_query t ~src:pkt.src flow ~nonce
    | Message.Install_receipt r -> (
      match t.receipt_sink with Some f -> f r | None -> ())
    | _ -> prev node pkt

  let make ~td ~path_source ~gateway ~config net node =
    {
      net;
      sim = Network.sim_for net node;
      node;
      gateway;
      config;
      path_source;
      td;
      bucket =
        Token_bucket.create ~rate:config.Config.r1
          ~burst:config.Config.r1_burst;
      flows = Hashtbl.create 32;
      awaiting = 0;
      attack_meter = Rate_meter.create ~window:1.0;
      good_meter = Rate_meter.create ~window:1.0;
      signer = None;
      receipt_sink = None;
      request_observer = None;
      arrival_observer = None;
      last_ppm_path = None;
      ppm_stable = 0;
      attack_packets = 0;
      good_packets = 0;
      requests_sent = 0;
      requests_suppressed = 0;
      requests_retransmitted = 0;
      requests_gave_up = 0;
      queries_answered = 0;
    }

  let proxy ~td ~config net node =
    make ~td ~path_source:From_route_record ~gateway:node.Node.addr ~config
      net node

  let create ?(td = 0.1) ?(path_source = From_route_record) ~gateway ~config
      net node =
    let t = make ~td ~path_source ~gateway ~config net node in
    Aitf_obs.Obs.with_metrics (Sim.obs t.sim) (fun reg ->
        let open Aitf_obs.Metrics in
        let p metric =
          Printf.sprintf "victim.%s.%s" node.Node.name metric
        in
        register_counter reg (p "requests_sent") ~unit_:"requests"
          ~help:"Filtering requests sent to the gateway" (fun () ->
            float_of_int t.requests_sent);
        register_counter reg (p "requests_suppressed") ~unit_:"requests"
          ~help:"Requests withheld by the local R1 bucket" (fun () ->
            float_of_int t.requests_suppressed);
        register_counter reg (p "requests_retransmitted") ~unit_:"requests"
          ~help:
            "Requests resent because the flow kept arriving after a \
             transmission" (fun () ->
            float_of_int t.requests_retransmitted);
        register_counter reg (p "requests_gave_up") ~unit_:"flows"
          ~help:
            "Flows whose retry budget ran out with the attack still \
             arriving" (fun () -> float_of_int t.requests_gave_up);
        register_counter reg (p "queries_answered") ~unit_:"queries"
          ~help:"Handshake verification queries confirmed" (fun () ->
            float_of_int t.queries_answered);
        register_counter reg (p "attack_bytes") ~unit_:"bytes"
          ~help:"Attack bytes delivered to this host" (fun () ->
            Rate_meter.total t.attack_meter);
        register_counter reg (p "good_bytes") ~unit_:"bytes"
          ~help:"Legitimate bytes delivered to this host" (fun () ->
            Rate_meter.total t.good_meter);
        register_gauge reg (p "attack_rate_bps") ~unit_:"bit/s"
          ~help:"Attack traffic rate over the meter window" (fun () ->
            8. *. Rate_meter.rate t.attack_meter ~now:(Sim.now t.sim)));
    let prev = node.Node.local_deliver in
    node.Node.local_deliver <- deliver t prev;
    t

  let attack_bytes t = Rate_meter.total t.attack_meter
  let attack_packets t = t.attack_packets
  let good_bytes t = Rate_meter.total t.good_meter
  let good_packets t = t.good_packets
  let attack_meter t = t.attack_meter
  let good_meter t = t.good_meter

  let flow_bytes t flow =
    match Hashtbl.find_opt t.flows flow with Some r -> r.bytes | None -> 0.

  let attack_flows_seen t = Hashtbl.length t.flows
  let set_signer t f = t.signer <- Some f
  let set_receipt_sink t f = t.receipt_sink <- Some f
  let set_request_observer t f = t.request_observer <- Some f
  let set_arrival_observer t f = t.arrival_observer <- Some f
  let requests_sent t = t.requests_sent
  let requests_suppressed t = t.requests_suppressed
  let requests_retransmitted t = t.requests_retransmitted
  let requests_gave_up t = t.requests_gave_up
  let queries_answered t = t.queries_answered
end

module Attacker = struct
  type t = {
    sim : Sim.t;
    node : Node.t;
    strategy : Policy.attacker_response;
    filters : Filter_table.t;
    off_until : (Flow_label.t, float) Hashtbl.t;
    mutable requests_received : int;
    mutable flows_stopped : int;
  }

  let node t = t.node
  let strategy t = t.strategy
  let filters t = t.filters
  let requests_received t = t.requests_received
  let flows_stopped t = t.flows_stopped
  let spans t = (Sim.obs t.sim).Obs.spans

  let gate t (pkt : Packet.t) =
    match t.strategy with
    | Policy.Ignores -> true
    | Policy.Complies -> not (Filter_table.blocks t.filters pkt)
    | Policy.On_off _ -> (
      let label = Flow_label.host_pair pkt.src pkt.dst in
      match Hashtbl.find_opt t.off_until label with
      | Some until when Sim.now t.sim < until -> false
      | Some _ ->
        Hashtbl.remove t.off_until label;
        true
      | None -> true)

  let on_request t (req : Message.request) =
    t.requests_received <- t.requests_received + 1;
    (* The counter-request reached the attacking host — however it responds,
       the Counter_request leg (gateway -> attacker) is over. *)
    Span.finish (spans t) ~corr:req.Message.corr ~stage:Span.Counter_request
      ~now:(Sim.now t.sim) ();
    match t.strategy with
    | Policy.Ignores -> ()
    | Policy.Complies -> (
      match
        Filter_table.install t.filters req.Message.flow
          ~duration:req.Message.duration
      with
      | Ok _ -> t.flows_stopped <- t.flows_stopped + 1
      | Error `Table_full -> ())
    | Policy.On_off { off_time } ->
      t.flows_stopped <- t.flows_stopped + 1;
      Hashtbl.replace t.off_until req.Message.flow
        (Sim.now t.sim +. off_time)

  let deliver t prev (node : Node.t) (pkt : Packet.t) =
    match pkt.payload with
    | Message.Filtering_request ({ Message.target = Message.To_attacker; _ } as req)
      ->
      on_request t req
    | _ -> prev node pkt

  let create ?(strategy = Policy.Complies) ?filter_capacity ~config net node =
    let sim = Network.sim_for net node in
    let capacity =
      Option.value ~default:config.Config.filter_capacity filter_capacity
    in
    let t =
      {
        sim;
        node;
        strategy;
        filters = Filter_table.create sim ~capacity;
        off_until = Hashtbl.create 8;
        requests_received = 0;
        flows_stopped = 0;
      }
    in
    Aitf_obs.Obs.with_metrics (Sim.obs sim) (fun reg ->
        let open Aitf_obs.Metrics in
        let p metric =
          Printf.sprintf "attacker.%s.%s" node.Node.name metric
        in
        register_counter reg (p "requests_received") ~unit_:"requests"
          ~help:"To-attacker filtering requests delivered" (fun () ->
            float_of_int t.requests_received);
        register_counter reg (p "flows_stopped") ~unit_:"flows"
          ~help:"Flows this host stopped (honestly or on-off)" (fun () ->
            float_of_int t.flows_stopped));
    let prev = node.Node.local_deliver in
    node.Node.local_deliver <- deliver t prev;
    t
end
