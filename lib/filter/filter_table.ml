module Sim = Aitf_engine.Sim
open Aitf_net

type filter = {
  mutable hits : int;
  mutable hit_bytes : int;
  mutable last_hit : float option;
  mutable limiter : Token_bucket.t option;  (* None = block outright *)
  mutable corr : int option;
      (* correlation id of the filtering request that installed this entry;
         carried so table observers (span tracing, fluid mirroring) can
         attribute install/removal to the right request *)
}

type handle = filter Label_table.entry
type change = Installed of handle | Removed of handle

type t = {
  table : filter Label_table.t;
  observers : (change -> unit) list ref;
  mutable blocked_packets : int;
  mutable blocked_bytes : int;
}

let notify observers ev = List.iter (fun f -> f ev) !observers

let create sim ~capacity =
  let observers = ref [] in
  {
    table =
      Label_table.create sim ~capacity ~expiry_label:"filter-expiry"
        ~on_remove:(fun h -> notify observers (Removed h));
    observers;
    blocked_packets = 0;
    blocked_bytes = 0;
  }

let subscribe t f = t.observers := f :: !(t.observers)

let evict_subsumed t label =
  (* removal fires the handlers, so evict in label order *)
  let victims =
    Label_table.select t.table (fun h ->
        Flow_label.subsumes label (Label_table.label h))
  in
  List.iter (Label_table.remove t.table) victims;
  List.length victims

(* One second of burst, floored at a packet. *)
let make_limiter rate = Token_bucket.create ~rate ~burst:(Float.max rate 1500.)

let install ?rate_limit ?corr t label ~duration =
  let tbl = t.table in
  (* A full table is not final: a new label subsuming live entries can make
     its own room — the compaction move aggregation relies on. *)
  if
    Label_table.occupancy tbl >= Label_table.capacity tbl
    && Option.is_none (Label_table.find tbl label)
  then ignore (evict_subsumed t label);
  let fresh =
    { hits = 0; hit_bytes = 0; last_hit = None; limiter = None; corr = None }
  in
  match
    Label_table.insert tbl label
      ~expires_at:(Sim.now (Label_table.sim tbl) +. duration)
      fresh
  with
  | Error `Full -> Error `Table_full
  | Ok h ->
    (* New or refreshed alike: a [corr] updates the stamp, and a rate is
       honored (replacing a limiter only when the rate changed, so
       conforming state survives a same-rate refresh); without them the
       entry keeps what it had. *)
    let f = Label_table.data h in
    (match corr with Some _ -> f.corr <- corr | None -> ());
    (match (rate_limit, f.limiter) with
    | None, _ -> ()
    | Some rate, Some old when Token_bucket.rate old = rate -> ()
    | Some rate, _ -> f.limiter <- Some (make_limiter rate));
    (* A refresh can change the action (block <-> rate-limit), so observers
       hear about it too. *)
    notify t.observers (Installed h);
    Ok h

let remove t h = Label_table.remove t.table h
let find t label = Label_table.find t.table label
let live_entries t = Label_table.live_entries t.table
let sim t = Label_table.sim t.table
let label = Label_table.label
let corr h = (Label_table.data h).corr
let rate_limit h = Option.map Token_bucket.rate (Label_table.data h).limiter
let installed_at = Label_table.inserted_at
let expires_at = Label_table.expires_at
let live = Label_table.live
let hits h = (Label_table.data h).hits
let hit_bytes h = (Label_table.data h).hit_bytes
let last_hit h = (Label_table.data h).last_hit
let matching_entry t pkt = Label_table.match_packet t.table pkt

let blocking_entry t pkt =
  match matching_entry t pkt with
  | None -> None
  | Some h ->
    let f = Label_table.data h and now = Sim.now (sim t) in
    let conforms =
      match f.limiter with
      | None -> false
      | Some bucket ->
        Token_bucket.allow bucket ~now ~cost:(float_of_int pkt.Packet.size)
    in
    if conforms then None
    else begin
      f.hits <- f.hits + 1;
      f.hit_bytes <- f.hit_bytes + pkt.Packet.size;
      f.last_hit <- Some now;
      t.blocked_packets <- t.blocked_packets + 1;
      t.blocked_bytes <- t.blocked_bytes + pkt.Packet.size;
      Some h
    end

let blocks t pkt = Option.is_some (blocking_entry t pkt)
let would_block t pkt = Option.is_some (matching_entry t pkt)
let occupancy t = Label_table.occupancy t.table
let capacity t = Label_table.capacity t.table
let peak_occupancy t = Label_table.peak_occupancy t.table
let installs t = Label_table.inserts t.table
let rejected t = Label_table.rejected t.table
let blocked_packets t = t.blocked_packets
let blocked_bytes t = t.blocked_bytes

let register_metrics t reg ~prefix =
  let open Aitf_obs.Metrics in
  let p metric = prefix ^ "." ^ metric in
  register_gauge reg (p "occupancy") ~unit_:"filters"
    ~help:"Live hardware filters" (fun () -> float_of_int (occupancy t));
  register_gauge reg (p "peak_occupancy") ~unit_:"filters"
    ~help:"High-water mark of live filters (compare with nv/na)" (fun () ->
      float_of_int (peak_occupancy t));
  register_counter reg (p "installs") ~unit_:"filters"
    ~help:"Successful installs, refreshes included" (fun () ->
      float_of_int (installs t));
  register_counter reg (p "rejected") ~unit_:"filters"
    ~help:"Installs refused because the table was full" (fun () ->
      float_of_int (rejected t));
  register_counter reg (p "blocked_packets") ~unit_:"packets"
    ~help:"Packets dropped by a matching filter" (fun () ->
      float_of_int t.blocked_packets);
  register_counter reg (p "blocked_bytes") ~unit_:"bytes"
    ~help:"Bytes dropped by a matching filter" (fun () ->
      float_of_int t.blocked_bytes)
