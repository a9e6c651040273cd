"""Tests of the benchmark itself: ``python3 -m pytest bench``.

The smoke test runs every workload for a moment, traced, with all output
checks; it takes a few seconds per workload.
"""

import json
import os
import subprocess
import sys

import pytest

import run
import spans
import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_runs_every_workload():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in run.WORKLOADS:
        assert f"smoke {workload}: attempted" in proc.stdout


def test_fails_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"),
                           "--workload", "eval_bulk", "--seed", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond():
    lat = [float(v) for v in range(100)]
    value, pct, beyond, n = run.tail(lat)
    assert sum(v > value for v in lat) == beyond == 10
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert run.tail(lat[:15])[:2] == (7.0, 50.0)


def test_self_time_excludes_children():
    recs = [["outer", 0.0, 10.0, -1, 0, None],
            ["inner", 1.0, 4.0, 0, 0, {"points": 5}],
            ["inner", 5.0, 6.0, 0, 0, {"points": 2}]]
    agg = spans.aggregate(recs)
    assert agg["outer"]["self_s"] == 6.0
    assert agg["inner"]["calls"] == 2
    assert agg["inner"]["points"] == 7


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(spans.layer_metrics([])) | {
        "cli.import_s", "cli.import.scipy_s", "bench.check_s",
        "bench.trace_overhead"}
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_slowdown_is_mean_of_nearest_probes_over_reference():
    ref = speed.REF_S["memory"]
    assert speed.NEAREST["memory"] == 15
    # A host twice as slow from t = 100 on.
    probes = [[float(t), ref * (2.0 if t >= 100 else 1.0)] for t in range(200)]
    assert speed.slowdown(probes, 40.0, "memory") == pytest.approx(1.0)
    assert speed.slowdown(probes, 150.0, "memory") == pytest.approx(2.0)
    # Across the step: 7 fast and 8 slow probes among the 15 nearest.
    assert speed.slowdown(probes, 100.0, "memory") == pytest.approx(23 / 15)
    # A request is scaled by the probes around its midpoint.
    loop = {"starts": [30.0, 150.0], "latencies": [1.0, 1.0]}
    assert run.scaled_latencies(loop, probes, "memory") == pytest.approx([1.0, 0.5])
