(* Tests for aitf_traceback: route record, bloom filters, SPIE and PPM. *)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
open Aitf_net
open Aitf_traceback

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let addr = Addr.of_string

let data ~src ~dst =
  Packet.make ~src ~dst ~size:1000 (Packet.Data { flow_id = 0; attack = true })

(* --- Route record --------------------------------------------------------- *)

(* AITF gateways stamp the route record themselves ([Packet.record_route]
   in their forwarding hook). [recorded_path ~gateways:n] builds
   h1 - gw0 - ... - gw(n-1) - h2 with a gateway on every border router and
   returns the record of the first packet h2 receives from h1. *)
let recorded_path ~gateways =
  let sim = Sim.create () in
  let net = Network.create sim in
  let h1 = Network.add_node net ~name:"h1" ~addr:(addr "1.0.0.10") ~as_id:1 Node.Host in
  let h2 = Network.add_node net ~name:"h2" ~addr:(addr "2.0.0.10") ~as_id:9 Node.Host in
  let gws =
    List.init gateways (fun i ->
        Network.add_node net
          ~name:(Printf.sprintf "gw%d" i)
          ~addr:(Addr.of_octets 5 i 0 1)
          ~as_id:(2 + i) Node.Border_router)
  in
  let rec chain = function
    | a :: (b :: _ as rest) ->
      ignore (Network.connect net a b ~bandwidth:1e9 ~delay:0.001);
      chain rest
    | _ -> ()
  in
  chain ([ h1 ] @ gws @ [ h2 ]);
  Network.compute_routes net;
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun gw ->
      ignore
        (Aitf_core.Gateway.create ~clients:[] ~config:Aitf_core.Config.default
           ~rng:(Rng.split rng) net gw))
    gws;
  let got = ref None in
  h2.Node.local_deliver <-
    (fun _ (pkt : Packet.t) ->
      if !got = None then got := Some pkt.Packet.route_record);
  Network.originate net h1 (data ~src:h1.Node.addr ~dst:h2.Node.addr);
  Sim.run sim;
  Option.map (List.map Addr.to_string) !got

let test_rr_hook_stamps () =
  check
    Alcotest.(option (list string))
    "delivered, stamped once" (Some [ "5.0.0.1" ])
    (recorded_path ~gateways:1)

(* Escalation round k contacts [List.nth_opt path k] (Gateway.engage): the
   (k+1)-th AITF node from the attacker. *)
let test_rr_round_indexing () =
  let path = Option.value ~default:[] (recorded_path ~gateways:3) in
  let round k = List.nth_opt path k in
  checkb "round 0 = nearest attacker" true (round 0 = Some "5.0.0.1");
  checkb "round 2" true (round 2 = Some "5.2.0.1");
  checkb "past end" true (round 3 = None)

(* A 4-gateway chain: packets from h1 to h2 must arrive carrying the border
   routers in traversal (attacker-first) order. *)
let test_rr_end_to_end_order () =
  check
    Alcotest.(option (list string))
    "traversal order"
    (Some [ "5.0.0.1"; "5.1.0.1"; "5.2.0.1"; "5.3.0.1" ])
    (recorded_path ~gateways:4)

(* --- Bloom ---------------------------------------------------------------- *)

let test_bloom_membership () =
  let b = Bloom.create ~bits:1024 ~hashes:4 in
  Bloom.add b "hello";
  checkb "present" true (Bloom.mem b "hello");
  checki "inserted" 1 (Bloom.inserted b)

let test_bloom_clear () =
  let b = Bloom.create ~bits:1024 ~hashes:4 in
  Bloom.add b "x";
  Bloom.clear b;
  checkb "cleared" false (Bloom.mem b "x");
  checki "count reset" 0 (Bloom.inserted b);
  checkb "fill ratio zero" true (Bloom.fill_ratio b = 0.)

let test_bloom_fp_rate_reasonable () =
  let b = Bloom.create ~bits:(1 lsl 14) ~hashes:4 in
  for i = 0 to 999 do
    Bloom.add b (string_of_int i)
  done;
  let fps = ref 0 in
  for i = 1000 to 10_999 do
    if Bloom.mem b (string_of_int i) then incr fps
  done;
  let rate = float_of_int !fps /. 10_000. in
  (* Theoretical rate at this load is ~2.4%; allow generous slack. *)
  checkb "fp rate below 6%" true (rate < 0.06);
  checkb "theoretical fp sane" true (Bloom.theoretical_fp_rate b < 0.06)

let test_bloom_validation () =
  checkb "bad bits" true
    (try
       ignore (Bloom.create ~bits:0 ~hashes:1);
       false
     with Invalid_argument _ -> true)

let bloom_no_false_negatives =
  QCheck.Test.make ~name:"bloom has no false negatives" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 200) string)
    (fun keys ->
      let b = Bloom.create ~bits:4096 ~hashes:3 in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

(* --- SPIE ----------------------------------------------------------------- *)

(* h1 - gw0 - gw1 - gw2 - h2 with SPIE deployed on the border routers. *)
let spie_chain () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let h1 = Network.add_node net ~name:"h1" ~addr:(addr "1.0.0.10") ~as_id:1 Node.Host in
  let h2 = Network.add_node net ~name:"h2" ~addr:(addr "2.0.0.10") ~as_id:9 Node.Host in
  let gws =
    Array.init 3 (fun i ->
        Network.add_node net
          ~name:(Printf.sprintf "gw%d" i)
          ~addr:(Addr.of_octets 5 i 0 1)
          ~as_id:(2 + i) Node.Border_router)
  in
  ignore (Network.connect net h1 gws.(0) ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net gws.(0) gws.(1) ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net gws.(1) gws.(2) ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net gws.(2) h2 ~bandwidth:1e9 ~delay:0.001);
  let spie = Spie.deploy net in
  Network.compute_routes net;
  (sim, net, h1, h2, gws, spie)

let test_spie_digest_excludes_mutables () =
  let p = data ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") in
  let d1 = Spie.digest p in
  p.Packet.ttl <- p.Packet.ttl - 3;
  Packet.record_route p (addr "9.9.9.9");
  p.Packet.ppm_mark <- Some (addr "9.9.9.9", addr "8.8.8.8", 2);
  checkb "digest stable under mutation" true (String.equal d1 (Spie.digest p))

let test_spie_records_on_path () =
  let sim, _net, h1, h2, gws, spie = spie_chain () in
  let captured = ref None in
  h2.Node.local_deliver <- (fun _ pkt -> captured := Some pkt);
  Network.originate _net h1 (data ~src:h1.Node.addr ~dst:h2.Node.addr);
  Sim.run sim;
  let pkt = Option.get !captured in
  Array.iter
    (fun gw ->
      match Spie.store_of spie gw with
      | Some store ->
        checkb (gw.Node.name ^ " saw it") true
          (Spie.seen store ~now:(Sim.now sim) pkt)
      | None -> Alcotest.fail "store missing")
    gws

let test_spie_reconstruct_path () =
  let sim, net, h1, h2, gws, spie = spie_chain () in
  let captured = ref None in
  h2.Node.local_deliver <- (fun _ pkt -> captured := Some pkt);
  Network.originate net h1 (data ~src:h1.Node.addr ~dst:h2.Node.addr);
  Sim.run sim;
  let pkt = Option.get !captured in
  (* Reconstruct from the victim-side gateway gw2: upstream trail is
     gw1, gw0 -> attacker-first [gw0; gw1]. *)
  let path, latency = Spie.reconstruct spie ~from:gws.(2) pkt in
  check (Alcotest.list Alcotest.string) "attacker-first path"
    [ "5.0.0.1"; "5.1.0.1" ]
    (List.map Addr.to_string path);
  checkb "positive latency" true (latency > 0.);
  checkb "queries counted" true (Spie.queries spie > 0)

let test_spie_unknown_packet_empty_path () =
  let _sim, _net, _h1, _h2, gws, spie = spie_chain () in
  let stranger = data ~src:(addr "99.0.0.1") ~dst:(addr "98.0.0.1") in
  let path, _ = Spie.reconstruct spie ~from:gws.(2) stranger in
  checki "no path" 0 (List.length path)

let test_spie_window_expiry () =
  let sim, net, h1, h2, gws, spie = spie_chain () in
  (* Tiny windows: deploy default is 1 s x 8 windows; after > 8 s the digest
     must be forgotten. *)
  let captured = ref None in
  h2.Node.local_deliver <- (fun _ pkt -> captured := Some pkt);
  Network.originate net h1 (data ~src:h1.Node.addr ~dst:h2.Node.addr);
  Sim.run sim;
  let pkt = Option.get !captured in
  let store = Option.get (Spie.store_of spie gws.(0)) in
  checkb "fresh" true (Spie.seen store ~now:(Sim.now sim) pkt);
  (* Push lots of later traffic to roll the windows forward. *)
  ignore
    (Sim.at sim 20. (fun () ->
         Network.originate net h1 (data ~src:h1.Node.addr ~dst:h2.Node.addr)));
  Sim.run sim;
  checkb "forgotten after windows rolled" false
    (Spie.seen store ~now:(Sim.now sim) pkt)

(* --- PPM ------------------------------------------------------------------ *)

let mk_border i =
  Node.make ~id:i ~name:(Printf.sprintf "r%d" i)
    ~addr:(Addr.of_octets 5 i 0 1)
    ~as_id:i Node.Border_router

let run_ppm_path ~p ~hops ~packets =
  let rng = Rng.create ~seed:99 in
  let routers = List.init hops mk_border in
  let collector = Ppm.Collector.create () in
  for _ = 1 to packets do
    let pkt = data ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") in
    List.iter (fun r -> ignore (Ppm.hook ~p ~rng r pkt)) routers;
    Ppm.Collector.observe collector pkt
  done;
  (routers, collector)

let test_ppm_reconstructs_path () =
  let routers, collector = run_ppm_path ~p:0.2 ~hops:4 ~packets:3000 in
  match Ppm.Collector.reconstruct collector with
  | None -> Alcotest.fail "expected convergence"
  | Some path ->
    let expected = List.map (fun (r : Node.t) -> r.Node.addr) routers in
    check (Alcotest.list Alcotest.string) "attacker-first path"
      (List.map Addr.to_string expected)
      (List.map Addr.to_string path)

let test_ppm_insufficient_samples () =
  let _, collector = run_ppm_path ~p:0.01 ~hops:6 ~packets:3 in
  (* With almost no samples the collector should not fabricate a full
     path; either None or a strict prefix of length < hops+? is fine. We
     only require it not to produce a wrong chain of full length. *)
  match Ppm.Collector.reconstruct collector with
  | None -> ()
  | Some path -> checkb "short or absent" true (List.length path <= 6)

let test_ppm_samples_counted () =
  let _, collector = run_ppm_path ~p:0.5 ~hops:3 ~packets:100 in
  checkb "marks observed" true (Ppm.Collector.samples collector > 0)

let test_ppm_expected_samples_monotone () =
  let e4 = Ppm.Collector.expected_samples ~p:0.04 ~hops:4 in
  let e8 = Ppm.Collector.expected_samples ~p:0.04 ~hops:8 in
  checkb "more hops need more samples" true (e8 > e4);
  checkb "degenerate p" true
    (Ppm.Collector.expected_samples ~p:0. ~hops:4 = infinity)

(* Mark spoofing ([SWKA00]'s known caveat): the attacker pre-loads fake
   edge marks in its own packets. A genuine distance-0 edge appears with
   probability p (the victim-adjacent router marks); the fake one survives
   all routers with probability (1-p)^hops. The most-frequent-edge
   collector therefore resists spoofing iff p > (1-p)^hops. *)
let run_ppm_spoofed ~p ~hops ~packets =
  let rng = Rng.create ~seed:123 in
  let routers = List.init hops mk_border in
  let collector = Ppm.Collector.create () in
  let fake = addr "66.6.6.6" in
  for _ = 1 to packets do
    let pkt = data ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") in
    pkt.Packet.ppm_mark <- Some (fake, fake, 0);
    List.iter (fun r -> ignore (Ppm.hook ~p ~rng r pkt)) routers;
    Ppm.Collector.observe collector pkt
  done;
  (routers, collector)

let test_ppm_mark_spoofing_resisted_at_high_p () =
  (* p = 0.4, 4 hops: the genuine d0 edge (frequency p = 0.4) beats the
     surviving fake (0.6^4 = 0.13), so the victim-near part of the path is
     intact. Savage's known residual weakness remains: the forger's mark
     can prepend hops {e upstream of itself} — which only costs AITF's
     escalation an extra round, since round 0 then targets a ghost. *)
  let routers, collector = run_ppm_spoofed ~p:0.4 ~hops:4 ~packets:4000 in
  match Ppm.Collector.reconstruct collector with
  | None -> Alcotest.fail "expected reconstruction"
  | Some path ->
    let expected =
      List.map (fun (r : Node.t) -> Addr.to_string r.Node.addr) routers
    in
    let got = List.map Addr.to_string path in
    let suffix l n =
      let len = List.length l in
      List.filteri (fun i _ -> i >= len - n) l
    in
    check (Alcotest.list Alcotest.string)
      "genuine path survives as the victim-near suffix" expected
      (suffix got (List.length expected));
    checkb "at most one fake hop prepended" true
      (List.length got <= List.length expected + 1)

let test_ppm_mark_spoofing_wins_at_low_p () =
  (* p = 0.05, 6 hops: spoofed d0 frequency 0.95^6 = 0.74 >> genuine 0.05 —
     the documented failure mode, pinned so the trade-off stays visible. *)
  let _, collector = run_ppm_spoofed ~p:0.05 ~hops:6 ~packets:4000 in
  match Ppm.Collector.reconstruct collector with
  | None -> () (* no convergence also counts as not-fooled-into-wrong-path *)
  | Some path ->
    checkb "reconstruction poisoned by the fake edge" true
      (List.exists (Addr.equal (addr "66.6.6.6")) path)

let test_ppm_no_marking_no_reconstruction () =
  let collector = Ppm.Collector.create () in
  let pkt = data ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") in
  Ppm.Collector.observe collector pkt;
  checkb "no marks, no path" true (Ppm.Collector.reconstruct collector = None);
  checki "no samples" 0 (Ppm.Collector.samples collector)

let () =
  Alcotest.run "aitf_traceback"
    [
      ( "route_record",
        [
          Alcotest.test_case "hook stamps" `Quick test_rr_hook_stamps;
          Alcotest.test_case "round indexing" `Quick test_rr_round_indexing;
          Alcotest.test_case "end-to-end order" `Quick test_rr_end_to_end_order;
        ] );
      ( "bloom",
        [
          Alcotest.test_case "membership" `Quick test_bloom_membership;
          Alcotest.test_case "clear" `Quick test_bloom_clear;
          Alcotest.test_case "fp rate" `Quick test_bloom_fp_rate_reasonable;
          Alcotest.test_case "validation" `Quick test_bloom_validation;
          QCheck_alcotest.to_alcotest bloom_no_false_negatives;
        ] );
      ( "spie",
        [
          Alcotest.test_case "digest stability" `Quick
            test_spie_digest_excludes_mutables;
          Alcotest.test_case "records on path" `Quick test_spie_records_on_path;
          Alcotest.test_case "reconstruct" `Quick test_spie_reconstruct_path;
          Alcotest.test_case "unknown packet" `Quick
            test_spie_unknown_packet_empty_path;
          Alcotest.test_case "window expiry" `Quick test_spie_window_expiry;
        ] );
      ( "ppm",
        [
          Alcotest.test_case "reconstructs path" `Quick
            test_ppm_reconstructs_path;
          Alcotest.test_case "insufficient samples" `Quick
            test_ppm_insufficient_samples;
          Alcotest.test_case "samples counted" `Quick test_ppm_samples_counted;
          Alcotest.test_case "expected samples" `Quick
            test_ppm_expected_samples_monotone;
          Alcotest.test_case "no marks" `Quick
            test_ppm_no_marking_no_reconstruction;
          Alcotest.test_case "mark spoofing resisted (high p)" `Quick
            test_ppm_mark_spoofing_resisted_at_high_p;
          Alcotest.test_case "mark spoofing wins (low p)" `Quick
            test_ppm_mark_spoofing_wins_at_low_p;
        ] );
    ]
