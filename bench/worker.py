"""One workload process: set up, run the closed loop, check, report.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
                            [--setup-only] [--smoke]

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``. Set-up
is ``import baryblend``, input generation, the fixed builds and one warm-up
request; the worker then records ``time.monotonic()`` as ``ready`` (the
parent measures ``setup_s`` from just before it started the process). With
``--setup-only`` it stops there.

The closed loop has one client: each request is sent after the previous one
returns and has been checked. Only the requests are timed; the loop runs
whole cycles of the workload until the timed total reaches ``--seconds``
(``--smoke`` steps one request at a time). With ``--trace 1`` the cycles
alternate between untraced and traced, the latter with the span wrappers
of :mod:`spans` installed, so each half gets about half the seconds.
Between requests, outside the timed region, the worker also runs the
workload's host-speed probe of :mod:`speed` when one is due.

The last line of stdout is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import time
from time import perf_counter

import spans
import speed
import workloads

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")


def import_library():
    """Import ``baryblend`` and make sure it is the checkout's ``src`` copy."""
    import baryblend
    import baryblend.cli  # noqa: F401  (patched by traced runs)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(baryblend.__file__).startswith(src + os.sep):
        raise SystemExit(f"baryblend imported from {baryblend.__file__}, "
                         f"not from {src}")
    return baryblend


class Prober:
    """Runs the host-speed probe ``part`` of :mod:`speed` once every
    ``speed.EVERY_S`` seconds of timed work, between requests."""

    def __init__(self, part):
        self.part = part
        self.probes = [speed.probe(part)]
        self.debt = 0.0

    def after(self, seconds):
        self.debt += seconds
        every = speed.EVERY_S[self.part]
        while self.debt >= every:
            self.probes.append(speed.probe(self.part))
            self.debt -= every


def new_record(cycle):
    return {"latencies": [], "starts": [], "points": [], "cycle": cycle,
            "failures": [], "check_s": 0.0}


def serve(wl, requests, rec, count, prober, tracer=None):
    """Serve ``count`` requests in a closed loop, appending to ``rec``.
    Only ``wl.run`` is timed (and traced); each request is checked, and the
    host probed when due, after it returns and before the next one is
    sent."""
    for _ in range(count):
        item = next(requests)
        if tracer is not None:
            tracer.req = item[0]
            tracer.enabled = True
        t0 = perf_counter()
        try:
            pts, out = wl.run(item)
            problems = None
        except Exception as exc:  # a failed request is counted, not fatal
            problems = [f"raised {exc!r}"]
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        rec["latencies"].append(dt)
        rec["starts"].append(t0)
        rec["points"].append(0 if problems else pts)
        t1 = perf_counter()
        if problems is None:
            problems = wl.check(item, out)
        rec["check_s"] += perf_counter() - t1
        if problems:
            rec["failures"].append(f"request {item[0]}: {'; '.join(problems)}")
        prober.after(dt)


def untraced_loop(wl, requests, seconds, step, prober):
    rec = new_record(wl.cycle)
    while sum(rec["latencies"]) < seconds:
        serve(wl, requests, rec, step, prober)
    return rec


def traced_loop(wl, requests, seconds, step, prober, bb, trace_out):
    """Alternate untraced and traced cycles, so that both halves see the
    same machine conditions. Returns ``(untraced, traced, tracer)``."""
    tracer = spans.Tracer()
    plain, traced = new_record(wl.cycle), new_record(wl.cycle)
    cli = isinstance(wl, workloads.CliRuns)
    while sum(plain["latencies"]) + sum(traced["latencies"]) < seconds:
        serve(wl, requests, plain, step, prober)
        if cli:
            # The children trace themselves; the worker only collects.
            wl.tracer, wl.trace_out = tracer, trace_out
            serve(wl, requests, traced, step, prober)
            wl.tracer = wl.trace_out = None
        else:
            uninstall = spans.install(tracer, bb)
            try:
                serve(wl, requests, traced, step, prober, tracer)
            finally:
                uninstall()
    return plain, traced, tracer


def importtime():
    """Cumulative import time of ``baryblend`` and ``scipy.interpolate`` in
    a fresh interpreter, from ``python -X importtime``, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import baryblend"], capture_output=True, text=True,
                          timeout=60, check=True)
    cum = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
        if m:
            cum[m.group(2)] = int(m.group(1)) * 1e-6
    return {"cli.import_s": cum.get("baryblend", 0.0),
            "cli.import.scipy_s": cum.get("scipy.interpolate", 0.0)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    bb = import_library()
    wl = workloads.WORKLOADS[args.workload](bb, args.seed)
    wl.warmup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    requests = wl.requests()
    prober = Prober(wl.speed_part)
    # Whole cycles, so that every run sees the same mix of requests.
    step = 1 if args.smoke else wl.cycle
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(OUT_DIR, f"cli-spans-{os.getpid()}.json")
        untraced, traced, tracer = traced_loop(wl, requests, args.seconds,
                                               step, prober, bb, trace_out)
    else:
        untraced = untraced_loop(wl, requests, args.seconds, step, prober)
    if isinstance(wl, workloads.CliRuns):
        peak_kb = max(wl.child_rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": ready, "untraced": untraced,
              "peak_rss_mb": peak_kb / 1024.0, "probes": prober.probes,
              "speed_part": wl.speed_part}
    if args.trace:
        tracer.dump(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
        layers = spans.layer_metrics(tracer.spans)
        layers.update(importtime())
        result.update(traced=traced, layers=layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
