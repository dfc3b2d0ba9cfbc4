module Obs = Aitf_obs.Obs

type handle = Event_queue.handle

type t = {
  queue : Event_queue.t;
  mutable now : float;
  mutable running : bool;
  mutable stop_requested : bool;
  mutable events_processed : int;
  profile_hook : (string option -> float -> int -> unit) option;
  obs : Obs.t;
}

(* Per-event profiler hook, fixed at creation: the world's own profiler
   when its observer context has one, else the process-wide default (the
   one global observer slot, used by external harnesses that must reach
   every world a scenario creates). Receives the event's category label,
   its wall-clock CPU cost in seconds, and the queue depth after it ran.
   One branch per event when unset. *)
let default_profile_hook : (string option -> float -> int -> unit) option ref
    =
  ref None

let set_default_profile_hook f = default_profile_hook := Some f
let clear_default_profile_hook () = default_profile_hook := None

let create ?(obs = Obs.create ()) () =
  {
    queue = Event_queue.create ();
    now = 0.0;
    running = false;
    stop_requested = false;
    events_processed = 0;
    profile_hook =
      (match obs.Obs.profile with
      | Some p -> Some (Aitf_obs.Profile.probe p)
      | None -> !default_profile_hook);
    obs;
  }

let obs sim = sim.obs
let now sim = sim.now

let at ?label sim time f =
  if time < sim.now then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" time sim.now);
  Event_queue.schedule ?label sim.queue ~time f

let after ?label sim delay f =
  let delay = if delay < 0. then 0. else delay in
  Event_queue.schedule ?label sim.queue ~time:(sim.now +. delay) f

let cancel = Event_queue.cancel

let step sim =
  match Event_queue.pop sim.queue with
  | None -> false
  | Some (time, label, action) ->
    sim.now <- time;
    sim.events_processed <- sim.events_processed + 1;
    (match sim.profile_hook with
    | None -> action ()
    | Some probe ->
      let t0 = Sys.time () in
      action ();
      probe label (Sys.time () -. t0) (Event_queue.length sim.queue));
    true

let run ?until ?max_events sim =
  if sim.running then invalid_arg "Sim.run: already running";
  sim.running <- true;
  sim.stop_requested <- false;
  let horizon = match until with None -> infinity | Some t -> t in
  let budget = ref (match max_events with None -> -1 | Some n -> n) in
  let rec loop () =
    if sim.stop_requested || !budget = 0 then ()
    else
      match Event_queue.next_time sim.queue with
      | None -> ()
      | Some t when t > horizon -> ()
      | Some _ ->
        ignore (step sim);
        if !budget > 0 then decr budget;
        loop ()
  in
  Fun.protect ~finally:(fun () -> sim.running <- false) loop;
  (* Only advance the clock to the horizon when the run actually drained
     that far (not when stopped or event-budget-exhausted mid-way). *)
  match until with
  | Some t when t > sim.now && (not sim.stop_requested) && !budget <> 0 ->
    sim.now <- t
  | _ -> ()

let next_time sim = Event_queue.next_time sim.queue

let run_window ?(inclusive = false) sim ~horizon =
  if sim.running then invalid_arg "Sim.run_window: already running";
  sim.running <- true;
  sim.stop_requested <- false;
  let executable t = if inclusive then t <= horizon else t < horizon in
  let rec loop () =
    if sim.stop_requested then ()
    else
      match Event_queue.next_time sim.queue with
      | Some t when executable t ->
        ignore (step sim);
        loop ()
      | _ -> ()
  in
  Fun.protect ~finally:(fun () -> sim.running <- false) loop

let advance_to sim time =
  (match Event_queue.next_time sim.queue with
  | Some t when t < time ->
    invalid_arg
      (Printf.sprintf
         "Sim.advance_to: event pending at %g before target %g" t time)
  | _ -> ());
  if time > sim.now then sim.now <- time

let stop sim = sim.stop_requested <- true
let events_processed sim = sim.events_processed
let pending sim = Event_queue.length sim.queue
let peak_pending sim = Event_queue.max_length sim.queue
let total_scheduled sim = Event_queue.total_scheduled sim.queue
let total_cancelled sim = Event_queue.total_cancelled sim.queue
