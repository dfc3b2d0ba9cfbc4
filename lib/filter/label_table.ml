module Sim = Aitf_engine.Sim
open Aitf_net

type 'a entry = {
  label : Flow_label.t;
  inserted_at : float;
  mutable expires_at : float;
  mutable alive : bool;
  data : 'a;
  mutable expiry_event : Sim.handle option;
}

type 'a t = {
  sim : Sim.t;
  capacity : int;
  expiry_label : string option;  (* hoisted: one [Some] for every arming *)
  on_remove : 'a entry -> unit;
  by_label : (Flow_label.t, 'a entry) Hashtbl.t;
  mutable wildcards : 'a entry list;
      (* the non-exact entries, most-specific-first *)
  mutable occupancy : int;
  mutable peak : int;
  mutable inserts : int;
  mutable rejected : int;
}

let create ?(on_remove = ignore) sim ~capacity ~expiry_label =
  if capacity <= 0 then invalid_arg "Label_table.create: capacity";
  {
    sim;
    capacity;
    expiry_label = Some expiry_label;
    on_remove;
    by_label = Hashtbl.create 64;
    wildcards = [];
    occupancy = 0;
    peak = 0;
    inserts = 0;
    rejected = 0;
  }

let remove t e =
  if e.alive then begin
    e.alive <- false;
    (match e.expiry_event with Some ev -> Sim.cancel ev | None -> ());
    e.expiry_event <- None;
    Hashtbl.remove t.by_label e.label;
    if not (Flow_label.is_exact e.label) then
      t.wildcards <- List.filter (fun w -> w != e) t.wildcards;
    t.occupancy <- t.occupancy - 1;
    t.on_remove e
  end

let arm t e =
  (match e.expiry_event with Some ev -> Sim.cancel ev | None -> ());
  e.expiry_event <-
    Some (Sim.at ?label:t.expiry_label t.sim e.expires_at (fun () -> remove t e))

(* The wildcard scan goes most-specific-first, ties broken by the label's
   total order — so a broad aggregate never shadows a narrower entry, and
   the match is independent of insertion order. *)
let wildcard_before a b =
  let c =
    Int.compare (Flow_label.specificity b.label) (Flow_label.specificity a.label)
  in
  (if c <> 0 then c else Flow_label.compare a.label b.label) <= 0

let rec insert_wildcard e = function
  | [] -> [ e ]
  | x :: _ as l when wildcard_before e x -> e :: l
  | x :: rest -> x :: insert_wildcard e rest

let insert t label ~expires_at data =
  match Hashtbl.find_opt t.by_label label with
  | Some e ->
    e.expires_at <- Float.max e.expires_at expires_at;
    arm t e;
    t.inserts <- t.inserts + 1;
    Ok e
  | None when t.occupancy >= t.capacity ->
    t.rejected <- t.rejected + 1;
    Error `Full
  | None ->
    let e =
      {
        label;
        inserted_at = Sim.now t.sim;
        expires_at;
        alive = true;
        data;
        expiry_event = None;
      }
    in
    Hashtbl.replace t.by_label label e;
    if not (Flow_label.is_exact label) then
      t.wildcards <- insert_wildcard e t.wildcards;
    t.occupancy <- t.occupancy + 1;
    if t.occupancy > t.peak then t.peak <- t.occupancy;
    t.inserts <- t.inserts + 1;
    arm t e;
    Ok e

let extend t e ~expires_at =
  if e.alive && expires_at > e.expires_at then begin
    e.expires_at <- expires_at;
    arm t e
  end

let find t label = Hashtbl.find_opt t.by_label label

let match_packet t (pkt : Packet.t) =
  let pair = Flow_label.host_pair pkt.src pkt.dst in
  match Hashtbl.find_opt t.by_label pair with
  | Some _ as found -> found
  | None -> (
    match
      Hashtbl.find_opt t.by_label { pair with Flow_label.proto = Some pkt.proto }
    with
    | Some _ as found -> found
    | None -> List.find_opt (fun e -> Flow_label.matches e.label pkt) t.wildcards)

let select t keep =
  Hashtbl.fold (fun _ e acc -> if keep e then e :: acc else acc) t.by_label []
  |> List.sort (fun a b -> Flow_label.compare a.label b.label)

let live_entries t = select t (fun _ -> true)
let sim t = t.sim
let data e = e.data
let label e = e.label
let inserted_at e = e.inserted_at
let expires_at e = e.expires_at
let live e = e.alive
let occupancy t = t.occupancy
let capacity t = t.capacity
let peak_occupancy t = t.peak
let inserts t = t.inserts
let rejected t = t.rejected
