(** Opt-in engine profiler: wall-clock accounting per event category.

    A world whose {!Obs.t} carries a profiler installs {!probe} as its
    per-event hook and buckets the wall-clock CPU cost of every executed
    event by its scheduling label ([Sim.at ~label] / [Sim.after ~label];
    unlabelled events land in ["other"]), while tracking the peak live
    event-queue depth it observed. Together with the queue's own
    scheduled/cancelled totals this attributes a run's hot path: which
    event category burned the time, and how deep the queue got.

    Everything here is wall-clock and therefore {e nondeterministic}; the
    profiler only reads simulation state (one branch per event when the
    world has none) and never feeds back into it, so a profiled run
    executes the same event sequence as an unprofiled one. *)

type t

val create : unit -> t

val probe : t -> string option -> float -> int -> unit
(** [probe t label seconds pending] accounts one executed event — the
    engine's per-event hook signature. *)

val merge_into : t -> t list -> unit
(** Add the buckets/events/seconds of several profilers into the first
    (peak queue depth is the max). The parallel scheduler folds its
    per-shard profilers back into the parent world's this way. *)

(** {1 Results} *)

val events : t -> int
(** Events timed by this profiler. *)

val seconds : t -> float
(** Total wall-clock seconds across all buckets. *)

val peak_pending : t -> int
(** Highest live event-queue depth observed by the probe. *)

val buckets : t -> (string * (int * float)) list
(** [(label, (events, seconds))], sorted by seconds, costliest first. *)

val report : t -> string
(** Human-readable per-bucket table. *)

val register_metrics : t -> Metrics.t -> prefix:string -> unit
(** Register pull-based gauges/counters over this profiler under
    [prefix]: [<prefix>.events], [<prefix>.seconds],
    [<prefix>.peak_pending] — how `bench --json` and the run report gain
    hot-path attribution. Values are wall-clock and nondeterministic. *)
