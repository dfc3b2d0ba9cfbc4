(** The observer context of one simulated world.

    Every [Sim.t] carries one [Obs.t], fixed when the world is created:
    the metrics registry, the span collector, the flight-recorder ring,
    the engine profiler and the trace sinks, each optional, plus the
    world's correlation-id counter. Components reach it through the sim
    they already hold ([Sim.obs]), so two worlds in one process — matrix
    cells, test fixtures, the shards of a parallel run — never record
    into each other's observers, and nothing needs attaching or
    detaching around a run.

    Scenario drivers take the context as [?obs]; leaving it out gives
    the world an empty one (everything off, ids minted from 1). Under the
    parallel engine each shard world gets a child context derived from
    the parent's and merged back into it when the run returns — see
    [Sched.create]. *)

type t = private {
  metrics : Metrics.t option;
  spans : Span.t option;
  flight : Flight.t option;
  profile : Profile.t option;
  trace : Trace.sink list;
  mint_base : int;  (** ids are [mint_base + 1], [mint_base + 2], ... *)
  mutable minted : int;
}

val create :
  ?metrics:Metrics.t ->
  ?spans:Span.t ->
  ?flight:Flight.t ->
  ?profile:Profile.t ->
  ?trace:Trace.sink list ->
  ?mint_base:int ->
  unit ->
  t
(** [mint_base] (default [0]) offsets this world's correlation ids; the
    parallel scheduler gives each shard a disjoint range. *)

val mint : t -> int
(** Next correlation id of this world. Protocol code mints
    unconditionally, whether or not a span collector is present, so that
    message contents do not depend on tracing. *)

val with_metrics : t -> (Metrics.t -> unit) -> unit
(** Run a component's registration block iff the world has a registry. *)
