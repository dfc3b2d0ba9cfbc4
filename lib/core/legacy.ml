module Victim = Host_agent.Victim
open Aitf_net

type t = { agent : Victim.t; protected_prefixes : unit Lpm.t }

let protects t a = Option.is_some (Lpm.lookup t.protected_prefixes a)

(* Fed from the transit hook only: the gateway node's local delivery stays
   the gateway's own (it answers its own escalation-round queries there). *)
let hook t (_node : Node.t) (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Data { attack = true; _ } when protects t pkt.dst ->
    Victim.observe_attack t.agent pkt;
    Node.Continue
  | Message.Verification_query { flow; nonce } when protects t pkt.dst ->
    (* Answer on the legacy victim's behalf — the gateway is on the path,
       which is all the handshake verifies — and consume the query so the
       AITF-oblivious host never sees it. *)
    Victim.answer_query t.agent ~src:pkt.src flow ~nonce;
    Node.Drop "legacy-proxy-query"
  | _ -> Node.Continue

let attach ?(td = 0.1) ~protect ~gateway net =
  let prefixes = Lpm.create () in
  List.iter (fun p -> Lpm.insert prefixes p ()) protect;
  let node = Gateway.node gateway in
  let t =
    {
      agent = Victim.proxy ~td ~config:(Gateway.config gateway) net node;
      protected_prefixes = prefixes;
    }
  in
  Node.add_hook node (hook t);
  t

let requests_sent t = Victim.requests_sent t.agent
let queries_answered t = Victim.queries_answered t.agent
let flows_detected t = Victim.attack_flows_seen t.agent
let watching t flow = Victim.requested t.agent flow
