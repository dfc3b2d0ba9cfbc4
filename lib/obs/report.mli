(** Machine-readable run reports.

    Serialises a final registry snapshot plus the sampled time series to
    JSON (schema [aitf.run-report/1], documented with a worked example in
    docs/OBSERVABILITY.md) and CSV, and parses the metric values back —
    the contract external tooling builds against.

    Report shape:
    {v
    { "schema": "aitf.run-report/1",
      "generated_at": <virtual seconds>,
      "meta": { ... caller-supplied run parameters ... },
      -- sharded runs only --
      "parallel": { "shards": <n>, "windows": <n>, "stall_seconds": ...,
                    "per_shard": [...], "window_timeline": {...} },
      "metrics": [
        { "name": ..., "kind": "counter"|"gauge"|"histogram",
          "unit": ..., "help": ...,
          -- counter/gauge --      "value": <number>,
          -- histogram --          "count": <n>, "sum": <number>,
                                   "buckets": [ {"le": <bound|"inf">,
                                                 "count": <n>}, ... ] } ],
      "series": [ { "name": ..., "points": [[t, v], ...] }, ... ] }
    v} *)

val make :
  ?meta:(string * Json.t) list ->
  ?parallel:Json.t ->
  ?series:(string * Aitf_stats.Series.t) list ->
  now:float ->
  Metrics.t ->
  Json.t
(** Snapshot the registry and assemble the report. [now] stamps
    [generated_at] (virtual time); [series] usually comes from
    [Aitf_engine.Sampler.series]; [?parallel] is the parallel-engine telemetry
    section emitted by sharded runs ([As_scenario.result.r_parallel]) —
    omitted entirely for sequential runs, keeping their reports
    byte-identical to previous versions. *)

val values_of_json :
  Json.t -> ((string * Metrics.value) list, string) result
(** Read the ["metrics"] section back (sorted by name) — the round-trip
    counterpart of {!make}. *)

val series_csv : (string * Aitf_stats.Series.t) list -> string
(** Long-format CSV: [metric,time,value] — one row per sample point. *)

val snapshot_csv : Metrics.t -> string
(** Final-snapshot CSV: [metric,kind,value,unit]. A histogram row carries
    its sample count as the value; its mean rides in a
    [<name>.mean] row. *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)

val write_json : string -> Json.t -> unit
(** Indented JSON plus a trailing newline. *)
