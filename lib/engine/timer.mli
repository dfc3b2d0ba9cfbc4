(** One-shot and periodic timers on top of {!Sim}.

    Timers add cancellation-aware convenience over raw event scheduling:
    a periodic timer re-arms itself until stopped, and a one-shot timer can
    be rescheduled (pushed back) before it fires — the pattern used for
    protocol grace periods. *)

type t

val one_shot : Sim.t -> delay:float -> (unit -> unit) -> t
(** Fire once after [delay] seconds. *)

val periodic : ?start:float -> Sim.t -> period:float -> (unit -> unit) -> t
(** Fire every [period] seconds; the first firing happens after
    [start] (default [period]) seconds. [period] must be positive. *)

val backoff :
  label:string ->
  Sim.t ->
  rto:float ->
  factor:float ->
  retries:int ->
  evidence:(unit -> bool) ->
  resend:(int -> unit) ->
  give_up:(unit -> unit) ->
  t
(** An exponential-backoff retransmission schedule for a message the caller
    has just sent. [rto] seconds from now, and after each retransmission
    with the wait multiplied by [factor], it asks [evidence] whether the
    peer has still not acted. If not, the schedule ends quietly. If so, it
    calls [resend n] for the n-th retransmission on each of the first
    [retries] such timeouts, and [give_up] on the one after. [label] tags each timeout event for the profiler.
    {!cancel} stops the schedule. *)

val cancel : t -> unit
(** Stop the timer; idempotent. A periodic timer stops re-arming. *)

val reschedule : t -> delay:float -> unit
(** For a one-shot timer: move the (pending or already-fired) firing to
    [now + delay]. For a periodic timer: delay the next firing to
    [now + delay], after which the normal period resumes. *)

val active : t -> bool
(** [true] while a firing is still pending. *)
