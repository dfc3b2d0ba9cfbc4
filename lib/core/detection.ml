type state = Unseen | Pending | Reported of float

type action = Arm_td | Report | Wait

let on_packet ~min_report_gap ~now = function
  | Unseen -> Arm_td
  | Pending -> Wait
  | Reported last ->
    (* Reappearance: instant re-detection, damped. *)
    if now -. last >= min_report_gap then Report else Wait
