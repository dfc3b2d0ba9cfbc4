(** Victim-side attack detection.

    The paper "starts from the point where the node has identified the
    undesired flows" and models detection as a delay: the first appearance
    of an undesired flow costs Td to detect, while a {e reappearing} flow is
    recognised "as fast as matching a received packet header to a logged
    undesired flow label — i.e. insignificant".

    This module is that rule alone: a transition on one flow's detection
    state — Td on first sight, instant re-detection of a logged flow, and a
    configurable damper ([min_report_gap]) so a still-leaking flow does not
    burn the victim's whole request budget. The state lives in the caller's
    per-flow record (the victim's flow log, {!Host_agent.Victim}), which
    runs the Td timer and applies the result. *)

type state =
  | Unseen  (** no packet of the flow observed yet *)
  | Pending  (** first sight: the Td timer is running *)
  | Reported of float  (** logged; time of the last report *)

type action =
  | Arm_td  (** first sight: set {!Pending}, report after Td *)
  | Report  (** a logged flow reappeared: report now *)
  | Wait  (** Td still running, or damped by [min_report_gap] *)

val on_packet : min_report_gap:float -> now:float -> state -> action
(** What an undesired packet arriving at [now] does to a flow in [state].
    The caller applies it: [Arm_td] sets {!Pending}, and a report, now or
    when Td runs out, sets [Reported] at the report's time. *)
