(* Request anatomy: the causal span tree of one filtering request.

   The two-gateway chain (depth 1: G_host - G_gw1 = B_gw1 - B_host) is run
   with the span collector attached, then the resulting span forest is
   printed as an annotated tree: every stage of the request — detection at
   the victim, the request's flight to G_gw1, the temporary filter, the
   handshake-backed verification at B_gw1, the counter-request to the
   attacker and the long filter — with its duration and the point events
   (retransmissions, policing, evictions) that landed inside it. Run with:

     dune exec examples/request_anatomy.exe

   The same tree is what `aitf_sim run --spans FILE` exports as Chrome
   trace-event JSON; see docs/OBSERVABILITY.md, section "Causal tracing".
*)

module Span = Aitf_obs.Span
module Scenarios = Aitf_workload.Scenarios
module Chain = Aitf_topo.Chain
open Aitf_core

let print_events indent events =
  List.iter
    (fun (e : Span.event) ->
      Printf.printf "%s* %-22s @ %8.4f s\n" indent e.Span.label e.Span.at)
    events

let print_root (r : Span.root) =
  Printf.printf "request #%d  flow %s  (minted at %s)\n" r.Span.corr
    r.Span.flow r.Span.victim;
  (match r.Span.completed_at with
  | Some t ->
    Printf.printf "|  completed at %.4f s — %.4f s from first attack packet\n"
      t (t -. r.Span.opened_at)
  | None -> print_endline "|  never completed");
  print_events "|  " (List.rev r.Span.root_events);
  let spans = Span.spans_of r in
  let n = List.length spans in
  List.iteri
    (fun i (s : Span.span) ->
      let branch = if i = n - 1 then "`--" else "|--" in
      let dur =
        match Span.duration s with
        | Some d -> Printf.sprintf "%8.4f s" d
        | None -> "   (open)"
      in
      Printf.printf "%s %-17s %-8s %8.4f -> %s  %s\n" branch
        (Span.stage_name s.Span.stage)
        ("[" ^ s.Span.node ^ "]")
        s.Span.started_at
        (match s.Span.finished_at with
        | Some t -> Printf.sprintf "%8.4f" t
        | None -> "    ... ")
        dur;
      let indent = if i = n - 1 then "       " else "|      " in
      print_events indent (Span.events_of s))
    spans;
  print_newline ()

let () =
  let collector = Span.create () in
  let params =
    {
      Scenarios.default_chain with
      Scenarios.spec = { Chain.default_spec with Chain.depth = 1 };
      config = Config.with_timescale Config.default 0.1;
      duration = 12.;
      attacker_strategy = Policy.Complies;
    }
  in
  let r =
    Scenarios.run_chain ~obs:(Aitf_obs.Obs.create ~spans:collector ()) params
  in
  print_endline "=== anatomy of a filtering request (two-gateway chain) ===";
  Printf.printf
    "attack suppressed: %.0f of %.0f offered bytes reached the victim\n\n"
    r.Scenarios.attack_received_bytes r.Scenarios.attack_offered_bytes;
  List.iter print_root (Span.roots collector);
  print_string (Span.summary collector);
  print_endline
    "\nReading the tree: detect is the victim noticing the flow (Td);\n\
     request is the flight to its gateway; temp-filter covers the Ttmp\n\
     window that protects the victim while verification (the 3-way\n\
     handshake at the attacker's gateway) runs; counter-request is the\n\
     gateway giving its attacker host the chance to stop; and\n\
     permanent-filter is the long (T) block, installed one hop from the\n\
     source. Verification's duration is exactly the time-to-filter the\n\
     metrics registry reports as a histogram."
