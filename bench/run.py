"""Benchmark of the antimagic library: four seeded workloads, every result checked.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` next to this directory.  A run sets
up SETUP_REPEATS times (fresh import of ``antimagic``, seeded inputs of
the first round, a warm-up on the tiny sizes), each after a garbage
collection, and reports the median as ``setup_s``.  It then runs rounds of the workload, each on fresh seeded
inputs, until another round would overrun ``--seconds``.  Every call into
the library is one checked operation; a failure is counted, not fatal.

Times are reported in reference seconds (see speed.py), per-layer span
times too; the run record keeps the raw wall times next to them.  With ``--trace 0`` the result line
carries the end-to-end metrics.  With ``--trace 1`` the untraced rounds are
followed by two replays of the first round, untraced and traced, and the
result line carries the per-layer metrics.  The last line of stdout is always the JSON
result; the lines before it are a human report, and a run record with the
machine, every metric, its unit and its sample count goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 25
POOL_PROBES = 5

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
from speed import REFERENCE_PROBE_S, SpeedSampler  # noqa: E402
from tracing import WORKER_NOTE, Tracer, layer_metrics, top_spans  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402


def import_library():
    """Import antimagic afresh from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "antimagic" / "__init__.py").is_file():
        raise SystemExit(f"bench: no antimagic sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "antimagic" or m.startswith("antimagic.")]:
        del sys.modules[name]
    am = importlib.import_module("antimagic")
    importlib.import_module("antimagic.cli")
    if not Path(am.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: imported antimagic from {am.__file__}, "
                         f"not from {src}")
    return am


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def set_up(workload_cls, seed: int, jobs: int, pause):
    """One set-up: import, seeded first-round inputs, warm-up on tiny sizes.

    pause wraps the warm-up's operations that run worker processes, as in
    the timed rounds.
    """
    am = import_library()
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    workload = workload_cls(am, "full", workdir, jobs)
    first = workload.inputs(rng)
    warm = workload_cls(am, "tiny", workdir, jobs)
    warm.run_round(warm.inputs(random.Random(seed)), Recorder(pause))
    return am, workload, rng, first


def run_rounds(workload, rng, first, seconds: float, rec: Recorder):
    """Rounds on fresh seeded inputs until another one would overrun.

    Returns the slice of rec.ops that each round added.
    """
    rounds: list[slice] = []
    durations: list[float] = []
    inputs = first
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        first_op = rec.attempted
        workload.run_round(inputs, rec)
        rounds.append(slice(first_op, rec.attempted))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - started + median(durations) > seconds:
            return rounds
        inputs = workload.inputs(rng)


def pool_startup_spans(am, jobs: int) -> list[tuple[float, float]]:
    """Spans of POOL_PROBES trivial searches that each start a jobs-sized pool."""
    g = am.build_cycle(4)
    spans = []
    for _ in range(POOL_PROBES):
        t0 = time.perf_counter()
        am.exhaustive_labeling_search(g, (0,), jobs=jobs)
        spans.append((t0, time.perf_counter()))
    return spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload_cls = WORKLOADS[args.workload]
    # the library does not cap jobs; the benchmark caps its own
    jobs = min(2, len(os.sched_getaffinity(0)))
    sampler = SpeedSampler()
    sampler.start()
    try:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            am, workload, rng, first = set_up(workload_cls, args.seed, jobs,
                                              sampler.paused)
            setup_spans.append((t0, time.perf_counter()))
        rec = Recorder(sampler.paused)
        rounds = run_rounds(workload, rng, first, args.seconds, rec)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            with sampler.paused():
                startup = pool_startup_spans(am, jobs)
            # the first round again, untraced and then traced, back to back
            replay_start = rec.attempted
            workload.run_round(first, rec)
            replayed = slice(replay_start, rec.attempted)
            traced = slice(rec.attempted, None)
            tracer = Tracer()
            tracer.install()
            try:
                workload.run_round(first, rec)
            finally:
                tracer.uninstall()
    finally:
        sampler.stop()

    rec.convert(sampler)
    setups = [sampler.reference_seconds(*span) for span in setup_spans]
    # a round's time to solution: its operations, without the checks
    walls = [(sum(op.ref_s for op in rec.ops[r]),
              sum(op.raw_s for op in rec.ops[r])) for r in rounds]
    untraced = Recorder()
    untraced.ops = rec.ops[:rounds[-1].stop]
    named = workload.metrics(untraced)
    latencies = untraced.seconds(workload.latency_kinds)
    raw_latencies = untraced.seconds(workload.latency_kinds, raw=True)
    headline = named[workload.headline]
    e2e = {
        "setup_s": (median(ref for ref, _ in setups), "s", len(setups)),
        "wall_s": (median(ref for ref, _ in walls), "s", len(walls)),
        "throughput_per_s": (headline[0], "1/s", headline[2]),
        "op_p50_ms": (median(latencies) * 1e3, "ms", len(latencies)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    report = dict(e2e)
    report.update(named)
    report.update({
        "raw.setup_s": (median(raw for _, raw in setups), "s", len(setups)),
        "raw.wall_s": (median(raw for _, raw in walls), "s", len(walls)),
        "raw.op_p50_ms": (median(raw_latencies) * 1e3, "ms",
                          len(raw_latencies)),
        "speed_probe_ms": (median(sampler.durations) * 1e3, "ms",
                           len(sampler.durations)),
        "fail_ratio": (rec.failed / rec.attempted, "ratio", rec.attempted),
    })

    layers = None
    if args.trace:
        j1 = named.get("labelings_per_s_j1", (0.0, "1/s", 0))
        j2 = named.get("labelings_per_s_j2", (0.0, "1/s", 0))
        totals = tracer.totals(lambda t: sampler.clocks(t)[0])
        layers = layer_metrics(tracer, totals, {
            "search.pool.startup_ms": (
                median(sampler.reference_seconds(*span)[0]
                       for span in startup) * 1e3, len(startup)),
            "search.labelings_per_s_j2": (j2[0], j2[2]),
            "search.scaling_j2": (j2[0] / j1[0] if j1[0] else 0.0,
                                  j1[2] + j2[2]),
            "trace.overhead_ratio": (
                sum(op.ref_s for op in rec.ops[traced])
                / sum(op.ref_s for op in rec.ops[replayed]),
                rec.attempted - traced.start),
        })

    record = {
        "workload": args.workload,
        "why": workload_cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "machine": machine(),
        "reference_probe_s": REFERENCE_PROBE_S,
        "rounds": len(rounds),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures[:50],
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in report.items()},
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  jobs {jobs}  "
          f"rounds {len(rounds)}")
    for name, (value, unit, samples) in report.items():
        print(f"  {name:<24} {value:>16.6g} {unit:<6} ({samples} samples)")
    for failure in rec.failures[:10]:
        print(f"  FAILED {failure}")
    if layers is not None:
        record["per_layer"] = {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in layers.items()}
        record["trace_note"] = WORKER_NOTE
        record["top_self_time"] = top_spans(totals)
        print(f"  traced replay of round 1 ({WORKER_NOTE})")
        for name, (value, unit, samples) in layers.items():
            print(f"  {name:<64} {value:>14.6g} {unit:<6} ({samples} samples)")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    chosen = layers if layers is not None else e2e
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
