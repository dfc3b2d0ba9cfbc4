(** Lightweight structured tracing for simulation runs.

    Components emit timestamped, categorised lines; sinks decide what to do
    with them. Examples install a printing sink to show protocol timelines;
    tests install a collecting sink to assert on event sequences. A world's
    sinks live in its {!Obs.t} ([Obs.create ~trace]), so two worlds in one
    process never see each other's lines. Tracing is disabled (zero sinks)
    by default and costs one branch per emission. *)

type event = { time : float; category : string; message : string }

type sink = event -> unit

val emit : sink list -> time:float -> category:string -> string -> unit
(** Emit an event to every sink; no-op when the list is empty. *)

val emitf :
  sink list ->
  time:float ->
  category:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Like {!emit} with a format string; the message is only built when there
    is a sink. *)

val printing_sink : ?out:Format.formatter -> unit -> sink
(** A sink that prints ["%8.4f [category] message"] lines. *)

val collecting_sink : unit -> sink * (unit -> event list)
(** A sink that accumulates events plus a function returning them in
    emission order. *)
