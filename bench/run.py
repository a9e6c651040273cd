"""Benchmark entry point for baryblend.

    python3 bench/run.py --workload eval_bulk --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout. Each run starts fresh worker processes
(``bench/worker.py``) against the checkout's ``src/``: ``SETUPS - 1``
that only set up, to time set-up more than once, then one that also runs
the closed loop. With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics instead, taken from a traced
half of the loop, and the tracing overhead against the untraced half.
Timed figures are scaled to the speed of a reference host by the probes
of ``bench/speed.py``, run between requests. Lines before it give every
metric by name and unit, the tail percentile
with its sample count, the error rate and an environment record. A full
record of the run is written to ``.bench_out/``.

``--smoke`` runs every workload for a moment, traced, and exits non-zero
if any output check failed. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
WORKLOADS = ("eval_bulk", "fit_probe", "lebesgue_sweep", "cli_runs")
SETUPS = 3
# The whole run must end within this many seconds.
BUDGET_S = 170.0
TAIL_BEYOND = 10
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, **THREAD_PINS)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = val.strip()
                elif key.strip() == "flags":
                    flags = val.split()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "avx512": sorted(f for f in flags if f.startswith("avx512")),
        "avx2": "avx2" in flags,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "thread_pins": THREAD_PINS,
    }


def run_worker(args, deadline):
    """Start one worker, return ``(seconds from start to ready, result)``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    result = json.loads(lines[-1])
    return result["ready"] - t0, result


def tail(lat):
    """The highest percentile with at least ``TAIL_BEYOND`` samples above
    it: ``(value, percentile, samples beyond, total)``. With fewer than
    ``2 * TAIL_BEYOND`` samples that percentile would sit below the
    median, so the median is reported instead."""
    s = sorted(lat)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(s), 50.0, n // 2, n
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n, TAIL_BEYOND, n


def process_slowdown():
    """The host's slowdown from one ``process`` probe, for a set-up."""
    return speed.probe("process")[1] / speed.REF_S["process"]


def scaled_latencies(loop, probes, part):
    """Each request's latency divided by the host's slowdown around it
    (:func:`speed.slowdown`), so that it reads as on the reference host."""
    return [dt / speed.slowdown(probes, t0 + dt / 2, part)
            for t0, dt in zip(loop["starts"], loop["latencies"])]


def loop_metrics(loop, lat):
    """End-to-end figures of one closed loop from its request latencies
    ``lat``, and how the tail was taken.

    Every cycle of a loop is the same mix of requests, so the rates and the
    median latency are taken per whole cycle and then as the median over
    cycles: a burst of load from other processes on the machine then moves
    only the cycles it covers. The tail needs the pooled samples."""
    pts, c = loop["points"], loop["cycle"]
    cycles = ([(i, i + c) for i in range(0, len(lat) - c + 1, c)]
              or [(0, len(lat))])
    value, pct, beyond, n = tail(lat)
    med = statistics.median
    return {
        "requests_per_s": med([(j - i) / sum(lat[i:j]) for i, j in cycles]),
        "points_per_s": med([sum(pts[i:j]) / sum(lat[i:j]) for i, j in cycles]),
        "latency_p50_ms": med([med(lat[i:j]) for i, j in cycles]) * 1e3,
        "latency_tail_ms": value * 1e3,
    }, {"percentile": pct, "beyond": beyond, "samples": n}


def run_once(workload, seed, seconds, trace, smoke=False):
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        base.append("--smoke")
    # Each set-up is scaled by the process probes just before and after it
    # (the last one, whose worker goes on to the loop, by the one before).
    setups, slow = [], [process_slowdown()]
    if not trace and not smoke:
        for _ in range(SETUPS - 1):
            setups.append(run_worker(base + ["--setup-only"], deadline)[0])
            slow.append(process_slowdown())
    setup_s, res = run_worker(base, deadline)
    setups.append(setup_s)
    factors = [(a + b) / 2 for a, b in zip(slow, slow[1:])] + [slow[-1]]

    loops = [res["untraced"]] + ([res["traced"]] if trace else [])
    attempted = sum(len(lp["latencies"]) for lp in loops)
    failures = [f for lp in loops for f in lp["failures"]]
    probes, part = res["probes"], res["speed_part"]
    plain = res["untraced"]
    e2e, tail_info = loop_metrics(plain, scaled_latencies(plain, probes, part))
    raw, _ = loop_metrics(plain, plain["latencies"])
    e2e["peak_rss_mb"] = res["peak_rss_mb"]
    e2e["setup_s"] = statistics.median(t / f for t, f in zip(setups, factors))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "setup_samples_s": setups, "setup_slowdowns": factors,
              "tail": tail_info,
              "attempted": attempted, "failed": len(failures),
              "error_rate": len(failures) / attempted,
              "failures": failures[:20], "end_to_end": e2e,
              "unscaled": raw, "probes": probes, "speed_part": part,
              "latencies_s": plain["latencies"], "starts_s": plain["starts"]}
    if trace:
        traced, _ = loop_metrics(res["traced"], scaled_latencies(
            res["traced"], probes, part))
        record["traced_end_to_end"] = traced
        record["trace_delta"] = {k: traced[k] - e2e[k] for k in traced}
        layers = dict(res["layers"])
        layers["bench.check_s"] = sum(lp["check_s"] for lp in loops)
        # Extra time per request with the wrappers in place, as a share.
        layers["bench.trace_overhead"] = (
            e2e["requests_per_s"] / traced["requests_per_s"] - 1.0)
        record["per_layer"] = layers
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed{seed}"
                                    f"-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record):
    """Print the human-readable lines and the final JSON line."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {record['workload']} seed {record['seed']} "
          f"seconds {record['seconds']} trace {record['trace']}")
    print("environment " + json.dumps(record["environment"]))
    for name, value in record["end_to_end"].items():
        note = ""
        if name == "latency_tail_ms":
            t = record["tail"]
            note = (f"  (p{t['percentile']:.1f}: {t['beyond']} of "
                    f"{t['samples']} samples beyond)")
        elif name == "setup_s":
            note = "  (median of %d scaled; unscaled %s)" % (
                len(record["setup_samples_s"]), ", ".join(
                    f"{v:.3f}" for v in record["setup_samples_s"]))
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"error_rate {record['error_rate']:.6g} ratio  "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for failure in record["failures"]:
        print("FAILED " + failure)
    if record["trace"]:
        for name, delta in record["trace_delta"].items():
            print(f"trace_delta {name} {delta:+.6g} {units[name]}")
        names = [m["name"] for m in spec["per_layer"]]
        values = record["per_layer"]
        for name in names:
            print(f"{name} {values[name]:.6g} {units[name]}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = record["end_to_end"]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in names}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def smoke():
    ok = True
    for workload in WORKLOADS:
        rec = run_once(workload, 0, 0.01, 1, smoke=True)
        print(f"smoke {workload}: attempted {rec['attempted']} "
              f"failed {rec['failed']}")
        for failure in rec["failures"]:
            print("FAILED " + failure)
        ok = ok and rec["failed"] == 0 and rec["attempted"] > 0
    print("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="baryblend benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="a workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check its outputs")
    args = ap.parse_args(argv)
    os.environ.update(THREAD_PINS)
    if not os.path.isfile(os.path.join("src", "baryblend", "__init__.py")):
        print("error: run from the root of a baryblend checkout "
              "(src/baryblend not found)", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in chosen:
            report(run_once(workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
