"""Smoke test of the benchmark itself: python3 -m pytest bench/test_smoke.py

Runs every workload at its tiny size, checks the result line against
BENCHMARK.json, and checks that a wrong expected count is counted as a
failed operation instead of passing silently.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedSampler  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NO_EXTRA = dict.fromkeys(("search.pool.startup_ms",
                          "search.labelings_per_s_j2", "search.scaling_j2",
                          "trace.overhead_ratio"), (0.0, 0))


def tiny_round(name: str, expect: dict | None = None):
    am = run.import_library()
    run.OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](am, "tiny", run.OUT, jobs=2)
    workload.size.update(expect or {})
    rec = Recorder()
    workload.run_round(workload.inputs(random.Random(3)), rec)
    return workload, rec


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_round_passes_its_checks(name):
    workload, rec = tiny_round(name)
    assert rec.attempted > 0
    assert rec.failures == []
    assert workload.headline in workload.metrics(rec)


@pytest.mark.parametrize("name, expect, failed", [
    ("magic-window", {"swept": 65}, 1),
    ("small-sweeps", {"tree": 141}, 1),
    ("construct-verify", {"verdict": "antimagic: no"}, None),
])
def test_wrong_expectation_shows_as_failed_operation(name, expect, failed):
    _, rec = tiny_round(name, expect)
    assert rec.failed == (rec.attempted if failed is None else failed)
    assert len(rec.failures) == rec.failed


def test_spec_names_match_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    tracer = Tracer()
    layers = layer_metrics(tracer, tracer.totals(float), NO_EXTRA)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: u for k, (_, u, _) in layers.items()}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_tracer_counts_profiles_per_duality_check_and_restores():
    am = run.import_library()
    original = am.labeling.weight_profile
    tracer = Tracer()
    tracer.install()
    try:
        workload = WORKLOADS["small-sweeps"](am, "tiny", run.OUT)
        workload.run_round(workload.inputs(random.Random(1)), Recorder())
    finally:
        tracer.uninstall()
    assert am.labeling.weight_profile is original
    totals = tracer.totals(float)
    for slot in totals.values():
        assert 0 <= slot["self_s"] <= slot["total_s"] + 1e-9
    layers = layer_metrics(tracer, totals, NO_EXTRA)
    assert layers["labeling.weight_profile.calls_per_duality_check"][0] == 4
    assert layers["search.sweep.check_tree_characterization.checked"][0] == 142


def _result(*args: str, cwd: Path = run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "construct-verify",
         "--seed", "5", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_result_line_schema(trace, section):
    proc = _result("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _result("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_clock_leaves_probes_out_and_is_additive():
    sampler = SpeedSampler()
    # probes at 0, 1 and 2 s, of 1 ms at the reference speed, then 2 ms
    sampler.starts = [0.0, 1.0, 2.0]
    sampler.durations = [REFERENCE_PROBE_S, REFERENCE_PROBE_S,
                         2 * REFERENCE_PROBE_S]
    ref, raw = sampler.reference_seconds(0.0, 1.0)
    assert raw == pytest.approx(1.0 - REFERENCE_PROBE_S)
    assert ref == pytest.approx(raw)
    ref, raw = sampler.reference_seconds(1.0, 2.0)
    assert ref == pytest.approx(0.75 * raw)
    halves = (sampler.reference_seconds(0.5, 1.5)[0]
              + sampler.reference_seconds(1.5, 2.5)[0])
    assert halves == pytest.approx(sampler.reference_seconds(0.5, 2.5)[0])
