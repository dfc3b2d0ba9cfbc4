type kind = One_shot | Periodic of float

type t = {
  sim : Sim.t;
  label : string option;
  kind : kind;
  action : unit -> unit;
  mutable handle : Sim.handle option;
  mutable cancelled : bool;
}

let rec arm t delay =
  let h =
    Sim.after ?label:t.label t.sim delay (fun () ->
        t.handle <- None;
        if not t.cancelled then begin
          t.action ();
          match t.kind with
          | One_shot -> ()
          | Periodic period -> if not t.cancelled then arm t period
        end)
  in
  t.handle <- Some h

let one_shot sim ~delay action =
  let t =
    { sim; label = None; kind = One_shot; action; handle = None;
      cancelled = false }
  in
  arm t delay;
  t

let periodic ?start sim ~period action =
  if period <= 0. then invalid_arg "Timer.periodic: period must be positive";
  let t =
    {
      sim;
      label = None;
      kind = Periodic period;
      action;
      handle = None;
      cancelled = false;
    }
  in
  arm t (match start with None -> period | Some s -> s);
  t

let backoff ~label sim ~rto ~factor ~retries ~evidence ~resend ~give_up =
  let wait = ref rto and attempt = ref 1 in
  let rec t =
    {
      sim;
      label = Some label;
      kind = One_shot;
      action =
        (fun () ->
          if evidence () then
            if !attempt <= retries then begin
              resend !attempt;
              incr attempt;
              wait := !wait *. factor;
              arm t !wait
            end
            else give_up ());
      handle = None;
      cancelled = false;
    }
  in
  arm t rto;
  t

let cancel t =
  t.cancelled <- true;
  match t.handle with
  | None -> ()
  | Some h ->
    Sim.cancel h;
    t.handle <- None

let reschedule t ~delay =
  if not t.cancelled then begin
    (match t.handle with Some h -> Sim.cancel h | None -> ());
    arm t delay
  end

let active t = (not t.cancelled) && Option.is_some t.handle
