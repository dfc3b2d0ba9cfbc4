#!/usr/bin/env python3
"""Benchmark of the AITF simulator: host cost of fixed simulated workloads.

Builds perfbench/bench.exe from source, then runs one workload for
--seconds as a series of samples. Each sample is a fresh process that runs
the workload's scenario instances once and reports their outcome
fingerprint, wall time and GC deltas. Prints every metric with its unit,
and as the last line one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  python3 perfbench/run.py --workload internet-vanilla --seed 42 --seconds 10
  python3 perfbench/run.py --workload internet-vanilla --trace 1   # per layer
  python3 perfbench/run.py                         # every workload, seed 42
  python3 perfbench/run.py --workload internet-vanilla-2shard --trace 1
  python3 perfbench/run.py --self-test             # short runs, checks
  python3 perfbench/run.py --write-spec            # BENCHMARK.json + spec
  python3 perfbench/run.py --record-reference 0-31,42

With --trace 0 the metrics are the end-to-end ones, taken from the
untraced sample of median wall time, with set-up time the median of the
set-up samples (one before each untraced sample, each the median of
repeated set-ups in its process). With --trace 1 they are the per-layer
ones: counts from the median untraced sample, busy time and allocation
per layer from the median traced sample, whose profile hook records one
span per executed event.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
SPANS_DIR = os.path.join(ROOT, BUILD_DIR, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(HERE, "workloads.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

RUN_SECONDS = 30
MIN_SAMPLES = 3  # per kind, even when --seconds has run out
SAMPLE_TIMEOUT = 60

# (name, unit, better, bound). The bound is the share of the parent's
# median by which the metric may worsen before a change is rejected.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("hops_per_s", "1/s", "higher", 0.25),
    ("alloc_words_per_hop", "words", "lower", 0.15),
    ("peak_heap_mb", "MB", "lower", 0.15),
]

# Layers whose events the trace hook times (the label -> layer map itself
# lives in bench.ml and is listed by `bench.exe describe`).
EVENT_STATS = [
    ("busy_s", "s"),
    ("events", "count"),
    ("ns_per_event", "ns"),
    ("words_per_event", "words"),
]
COUNTS = [
    "net.hops", "net.drops",
    "placement.evidence", "placement.installs", "placement.reclaims",
    "placement.pushes", "placement.evictions_observed",
    "flowsim.recomputes", "flowsim.link_visits",
    "filter.installs", "filter.rejected", "filter.blocked_packets",
    "filter.slots_peak", "filter.overload_evictions",
    "filter.overload_aggregations",
    "core.requests_sent", "core.requests_received",
    "parallel.windows", "parallel.global_batches", "parallel.messages",
    "parallel.deferred",
]
OTHER_PER_LAYER = [
    ("parallel.coordinator_wait_s", "s"),
    ("parallel.shard0.busy_s", "s"),
    ("parallel.shard0.idle_s", "s"),
    ("parallel.shard1.busy_s", "s"),
    ("parallel.shard1.idle_s", "s"),
    ("parallel.imbalance", "ratio"),
    ("gc.minor_words", "words"),
    ("gc.promoted_words", "words"),
    ("gc.minor_collections", "count"),
    ("gc.major_collections", "count"),
    ("engine.events", "count"),
    ("engine.peak_queue", "count"),
    ("trace.event_s", "s"),
    ("trace.overhead", "ratio"),
]


class Failure(Exception):
    pass


def per_layer_spec(layers):
    spec = []
    for layer in layers:
        spec += [(f"{layer}.{stat}", unit) for stat, unit in EVENT_STATS]
    spec += [(name, "count") for name in COUNTS]
    spec += OTHER_PER_LAYER
    return spec


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet",
           "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"build failed: {e}")
    if proc.returncode != 0 or not os.path.exists(EXE):
        raise Failure("build failed:\n" + proc.stderr[-4000:])


def bench(*args):
    proc = subprocess.run([EXE, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=SAMPLE_TIMEOUT)
    if proc.returncode != 0:
        raise Failure(f"bench.exe {' '.join(args)} exited "
                      f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe():
    return bench("describe")


def digest(fingerprint):
    return hashlib.md5(fingerprint.encode()).hexdigest()


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


class Run:
    """The samples of one workload at one seed, each checked against the
    reference fingerprint digest held for (workload, seed), or against the
    run's own first sample when no reference is held for that seed."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        self.expected = reference.get(workload, {}).get(str(seed))
        self.setup_expected = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def sample(self, mode, duration=None, spans=None):
        args = ["sample", "--workload", self.workload, "--seed",
                str(self.seed), "--mode", mode]
        if duration is not None:
            args += ["--duration", repr(duration)]
        if spans is not None:
            args += ["--spans", spans]
        self.attempted += 1
        try:
            s = bench(*args)
        except (Failure, subprocess.TimeoutExpired, ValueError) as e:
            return self.fail(f"{mode}: {e}")
        if not s.get("ok"):
            return self.fail(f"{mode}: raised {s.get('error')}")
        got = digest(s["fingerprint"])
        if mode == "setup":
            if self.setup_expected is None:
                self.setup_expected = got
            expected = self.setup_expected
        elif duration is not None:
            expected = None  # short self-test samples are compared there
        else:
            if self.expected is None:
                self.expected = got
            expected = self.expected
        if expected is not None and got != expected:
            return self.fail(f"{mode}: fingerprint {s['fingerprint']!r} "
                             f"(digest {got}) != expected digest {expected}")
        return s

    def fail(self, msg):
        self.failed += 1
        self.errors.append(msg)
        print(f"FAILED sample: {msg}", file=sys.stderr)
        return None


def middle(samples):
    """The sample of median wall time (the lower middle one of an even
    number). On a shared host the fastest sample is the one that happened
    to meet the least contention, and how lucky the luckiest sample gets
    varies far more from run to run than the middle one."""
    return sorted(samples, key=lambda s: s["wall_s"])[(len(samples) - 1) // 2]


def collect(run, seconds, trace):
    """Samples for --seconds: a set-up sample, an untraced sample and, with
    --trace 1, a traced sample, in turn, so that contention episodes fall
    on all kinds alike. No further round is started that would end past
    --seconds once every kind has MIN_SAMPLES."""
    setups, untraced, traced = [], [], []
    os.makedirs(SPANS_DIR, exist_ok=True)
    start = time.monotonic()
    last_round = 0.0

    def add(samples, s):
        if s:
            samples.append(s)

    while True:
        round_start = time.monotonic()
        elapsed = round_start - start
        enough = len(untraced) >= MIN_SAMPLES and (
            not trace or len(traced) >= MIN_SAMPLES)
        if (enough and elapsed + last_round >= seconds) or (
                run.failed and elapsed >= seconds):
            break
        add(setups, run.sample("setup"))
        add(untraced, run.sample("run"))
        if trace:
            path = os.path.join(SPANS_DIR,
                                f"spans-{run.workload}-{len(traced)}.tsv")
            s = run.sample("traced", spans=path)
            if s:
                s["spans"] = path
            add(traced, s)
        last_round = time.monotonic() - round_start
    return setups, untraced, traced


def end_to_end(setups, untraced):
    """Run-phase figures subtract set-up: its median time, and the minor
    words of a set-up sample's first (fresh-process) set-up, which repeat
    exactly at a seed on one shard."""
    setup_s = statistics.median(s["wall_s"] for s in setups)
    setup_words = min(s["gc_delta"]["minor_words"] for s in setups)
    s = middle(untraced)
    hops = max(1, s["hops"])
    return {
        "wall_s": s["wall_s"],
        "setup_s": setup_s,
        "hops_per_s": s["hops"] / (s["wall_s"] - setup_s),
        "alloc_words_per_hop":
            (s["gc_delta"]["minor_words"] - setup_words) / hops,
        "peak_heap_mb": s["gc_delta"]["top_heap_words"] * 8 / 1e6,
    }


def per_layer(layers, shards, untraced, traced):
    base = middle(untraced)
    t = middle(traced)
    tr = t["trace"]
    out = {}
    for layer in layers:
        st = tr["layers"][layer]
        ev = st["events"]
        out[f"{layer}.busy_s"] = st["busy_s"]
        out[f"{layer}.events"] = ev
        out[f"{layer}.ns_per_event"] = st["busy_s"] * 1e9 / ev if ev else 0.0
        out[f"{layer}.words_per_event"] = st["words"] / ev if ev else 0.0
    for name in COUNTS:
        out[name] = base["counts"].get(name, 0.0)
    out["parallel.coordinator_wait_s"] = base["counts"].get(
        "parallel.coordinator_wait_s", 0.0)
    # Each instance spawns one worker domain per shard, in shard order, so
    # worker k (by domain id) ran shard k mod shards. With one shard the
    # only world runs on the main domain.
    workers = [d for d in tr["domains"] if d["domain"] != 0]
    if not workers:
        workers = tr["domains"]
    n = max(1, shards)
    shard_stats = [
        {k: sum(d[k] for d in workers[i::n]) for k in ("busy_s", "idle_s")}
        for i in range(n)]
    for i in range(2):
        d = shard_stats[i] if i < n else {"busy_s": 0.0, "idle_s": 0.0}
        out[f"parallel.shard{i}.busy_s"] = d["busy_s"]
        out[f"parallel.shard{i}.idle_s"] = d["idle_s"]
    busy = [d["busy_s"] for d in shard_stats]
    out["parallel.imbalance"] = (
        1 - statistics.mean(busy) / max(busy) if max(busy) > 0 else 0.0)
    g = base["gc_delta"]
    out["gc.minor_words"] = g["minor_words"]
    out["gc.promoted_words"] = g["promoted_words"]
    out["gc.minor_collections"] = g["minor_collections"]
    out["gc.major_collections"] = g["major_collections"]
    out["engine.events"] = base["events"]
    out["engine.peak_queue"] = tr["peak_queue"]
    out["trace.event_s"] = sum(st["busy_s"] for st in tr["layers"].values())
    out["trace.overhead"] = t["wall_s"] / base["wall_s"]
    return out, t


def keep_spans(workload, traced, chosen):
    """Keep the span file of the reported traced sample, drop the rest."""
    for s in traced:
        if s is not chosen and os.path.exists(s["spans"]):
            os.remove(s["spans"])
    final = os.path.join(SPANS_DIR, f"spans-{workload}.tsv")
    if os.path.exists(chosen["spans"]):
        os.replace(chosen["spans"], final)
    return final


def print_environment(sample):
    g = sample["gc"]
    print(f"# OCaml {g['ocaml']}, {g['cores']} cores, "
          f"OCAMLRUNPARAM={g['ocamlrunparam']!r}, "
          f"minor heap {g['minor_heap_words']} words, "
          f"space_overhead {g['space_overhead']}")


def run_workload(workload, shards, seed, seconds, trace, units):
    run = Run(workload, seed, load_reference())
    setups, untraced, traced = collect(run, seconds, trace)
    ok = run.failed == 0 and setups and untraced and (traced or not trace)
    metrics = {}
    if ok:
        print_environment(untraced[0])
        fast = min(s["wall_s"] for s in untraced)
        mid = middle(untraced)["wall_s"]
        setup_s = statistics.median(s["wall_s"] for s in setups)
        print(f"# {workload} seed {seed}: {len(setups)} set-up, "
              f"{len(untraced)} untraced, {len(traced)} traced samples; "
              f"untraced wall fastest {fast:.4g} s, median {mid:.4g} s; "
              f"set-up {setup_s / mid:.1%} of it")
        if trace:
            layers = list(traced[0]["trace"]["layers"])
            metrics, chosen = per_layer(layers, shards, untraced, traced)
            print(f"# spans: {keep_spans(workload, traced, chosen)}")
            total = metrics["trace.event_s"]
            print("# share of traced event time: " + ", ".join(
                f"{l} {metrics[l + '.busy_s'] / total:.1%}" for l in layers
                if metrics[l + ".busy_s"] > 0))
        else:
            metrics = end_to_end(setups, untraced)
        for name, value in metrics.items():
            print(f"{workload} {name} {value:.6g} {units[name]}")
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"{workload} failed_run_share {share:.6g} ratio "
          f"({run.failed} of {run.attempted} samples)")
    return {
        "correct": bool(ok),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def write_spec(desc):
    """Write BENCHMARK.json and perfbench/workloads.json from the tables
    above and the workload list bench.exe describes."""
    layers = list(desc["layers"])
    bench_json = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in desc["workloads"]],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer_spec(layers)],
    }
    with open(BENCHMARK_JSON, "w") as f:
        json.dump(bench_json, f, indent=2)
        f.write("\n")
    with open(SPEC, "w") as f:
        json.dump(desc, f, indent=2)
        f.write("\n")


def shard_count(w):
    return int(w["inputs"].get("shards", "1"))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_reference(desc, seeds):
    """Write the outcome fingerprint digest of one untraced sample of every
    workload at each seed to perfbench/reference.json. Only a change meant
    to alter simulated behaviour should ever rewrite it."""
    reference = {}
    for w in desc["workloads"]:
        run = Run(w["name"], None, {})
        reference[w["name"]] = {}
        for seed in seeds:
            run.seed = seed
            run.expected = None
            s = run.sample("run")
            if s is None:
                return False
            reference[w["name"]][str(seed)] = digest(s["fingerprint"])
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    return True


def self_test(desc):
    """Each workload at a short simulated duration: two untraced samples
    and one traced sample agree on the fingerprint, untraced allocation
    repeats exactly on one shard, the traced spans number the events the
    engine executed, no label falls outside the map, and every metric
    BENCHMARK.json names is emitted. On one shard, each layer's busy time
    is also checked against an independent measure: the engine's own cost
    of that layer's events (process CPU time around each event's action,
    which Sim hands to the hook). A span covers its action plus the
    engine's dispatch, so it can only be longer: on these workloads the
    spans add up to 1.3-1.9 times the engine's cost, the rest being the
    queue pop and the two process-CPU reads Sim makes around each traced
    event."""
    with open(BENCHMARK_JSON) as f:
        bj = json.load(f)
    problems = []
    if [(w["name"], w["why"]) for w in bj["workloads"]] != [
            (w["name"], w["why"]) for w in desc["workloads"]]:
        problems.append("BENCHMARK.json workloads differ from bench.exe")
    with open(SPEC) as f:
        if json.load(f) != desc:
            problems.append("perfbench/workloads.json is stale")
    e2e_names = {m["name"] for m in bj["end_to_end"]}
    layer_names = {m["name"] for m in bj["per_layer"]}
    short = {"chain-exhaustion": 30.0}
    for w in desc["workloads"]:
        name = w["name"]
        run = Run(name, 42, {})
        d = short.get(name, 2.0)
        a = run.sample("run", duration=d)
        b = run.sample("run", duration=d)
        t = run.sample("traced", duration=d)
        setup = run.sample("setup")
        if not (a and b and t and setup):
            problems += [f"{name}: {e}" for e in run.errors]
            continue
        if len({a["fingerprint"], b["fingerprint"], t["fingerprint"]}) != 1:
            problems.append(f"{name}: fingerprints differ between samples")
        if (shard_count(w) == 1
                and a["gc_delta"]["minor_words"]
                != b["gc_delta"]["minor_words"]):
            problems.append(f"{name}: minor words do not repeat")
        e2e = end_to_end([setup], [a, b])
        layers, _ = per_layer(list(desc["layers"]), shard_count(w), [a, b],
                              [t])
        if set(e2e) != e2e_names:
            problems.append(f"{name}: end-to-end metrics {sorted(e2e)}")
        if set(layers) != layer_names:
            problems.append(
                f"{name}: per-layer metrics differ by "
                f"{sorted(set(layers) ^ layer_names)}")
        if layers["other.events"] != 0:
            problems.append(f"{name}: events with unmapped labels")
        if shard_count(w) == 1:
            tl = t["trace"]["layers"]
            for l in desc["layers"]:
                if tl[l]["engine_cost_s"] > 1.05 * tl[l]["busy_s"] + 1e-3:
                    problems.append(
                        f"{name}: {l} busy {tl[l]['busy_s']:.4g} s is less "
                        f"than its engine cost "
                        f"{tl[l]['engine_cost_s']:.4g} s")
            cost = sum(tl[l]["engine_cost_s"] for l in desc["layers"])
            if not cost <= layers["trace.event_s"] <= 3 * cost:
                problems.append(
                    f"{name}: traced event time "
                    f"{layers['trace.event_s']:.4g} s is not within 1-3x "
                    f"of the engine's cost of all events {cost:.4g} s")
        if sum(layers[f"{l}.events"] for l in desc["layers"]) != t["events"]:
            problems.append(f"{name}: traced spans != events executed")
        print(f"self-test {name}: {a['fingerprint']}")
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--record-reference", metavar="SEEDS")
    args = ap.parse_args()

    # A SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps
    # the sample it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        desc = describe()
    except Failure as e:
        print(e, file=sys.stderr)
        return 1
    if args.write_spec:
        write_spec(desc)
        return 0
    if args.record_reference:
        return 0 if record_reference(
            desc, parse_seeds(args.record_reference)) else 1
    if args.self_test:
        return 0 if self_test(desc) else 1

    units = dict((n, u) for n, u, _, _ in END_TO_END)
    units.update(per_layer_spec(list(desc["layers"])))
    by_name = {w["name"]: w for w in desc["workloads"]}
    if args.workload == "all":
        results = {w["name"]: run_workload(w["name"], shard_count(w),
                                           args.seed, args.seconds,
                                           args.trace, units)
                   for w in desc["workloads"]}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload not in by_name:
        print(f"unknown workload {args.workload}; one of {list(by_name)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload,
                          shard_count(by_name[args.workload]), args.seed,
                          args.seconds, args.trace, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
