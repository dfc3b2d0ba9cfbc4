module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Timer = Aitf_engine.Timer
open Aitf_filter

type pending = {
  flow : Flow_label.t;
  on_result : bool -> unit;
  mutable schedule : Timer.t option;  (* timeouts and retransmissions *)
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  timeout : float;
  retries : int;
  backoff : float;
  table : (int64, pending) Hashtbl.t;
  completed : (int64, Flow_label.t) Hashtbl.t;
      (* verified nonces, kept so a replayed reply is recognised as a
         duplicate (a no-op) rather than a forgery *)
  mutable started : int;
  mutable verified : int;
  mutable timed_out : int;
  mutable bogus : int;
  mutable retransmits : int;
  mutable duplicates : int;
}

let create ?(retries = 0) ?(backoff = 2.0) sim rng ~timeout =
  if retries < 0 then invalid_arg "Handshake.create: negative retries";
  if backoff < 1.0 then invalid_arg "Handshake.create: backoff must be >= 1";
  {
    sim;
    rng;
    timeout;
    retries;
    backoff;
    table = Hashtbl.create 32;
    completed = Hashtbl.create 32;
    started = 0;
    verified = 0;
    timed_out = 0;
    bogus = 0;
    retransmits = 0;
    duplicates = 0;
  }

let rec fresh_nonce t =
  let n = Rng.nonce t.rng in
  if Hashtbl.mem t.table n || Hashtbl.mem t.completed n then fresh_nonce t
  else n

(* Send the query, then arm its timeout: on expiry, retransmit with the
   backed-off timeout while the retry budget lasts, then fail exactly
   once. *)
let start t ~flow ~send ~on_result =
  let nonce = fresh_nonce t in
  let p = { flow; on_result; schedule = None } in
  Hashtbl.replace t.table nonce p;
  t.started <- t.started + 1;
  send nonce;
  p.schedule <-
    Some
      (Timer.backoff ~label:"handshake-rto" t.sim ~rto:t.timeout
         ~factor:t.backoff ~retries:t.retries
         ~evidence:(fun () -> Hashtbl.mem t.table nonce)
         ~resend:(fun _ ->
           t.retransmits <- t.retransmits + 1;
           send nonce)
         ~give_up:(fun () ->
           Hashtbl.remove t.table nonce;
           t.timed_out <- t.timed_out + 1;
           on_result false));
  nonce

let handle_reply t ~flow ~nonce =
  match Hashtbl.find_opt t.table nonce with
  | Some p when Flow_label.equal p.flow flow ->
    Hashtbl.remove t.table nonce;
    Option.iter Timer.cancel p.schedule;
    Hashtbl.replace t.completed nonce p.flow;
    t.verified <- t.verified + 1;
    p.on_result true
  | Some _ -> t.bogus <- t.bogus + 1
  | None -> (
    match Hashtbl.find_opt t.completed nonce with
    | Some f when Flow_label.equal f flow ->
      (* Replay of an already-verified reply (retransmitted query answered
         twice, or a duplicated packet): a no-op by design. *)
      t.duplicates <- t.duplicates + 1
    | Some _ | None -> t.bogus <- t.bogus + 1)

let pending t = Hashtbl.length t.table
let started t = t.started
let verified t = t.verified
let timed_out t = t.timed_out
let bogus_replies t = t.bogus
let retransmits t = t.retransmits
let duplicate_replies t = t.duplicates
