"""Seeded input generator for the benchmark workloads.

Everything a workload feeds to the library comes from here: node sets
(equispaced and jittered), noisy samples, query batches with points placed
exactly on nodes, ``(d, e)`` draws and CLI argv. The same seed gives the
same inputs. Each draw uses its own stream ``(seed, workload, index)``, so
inputs can be generated one cycle at a time, outside the timed region,
without holding the whole run in memory.

Each workload repeats a fixed *cycle* of requests whose mix of sizes does
not depend on the seed; the seed picks the values inside the cycle. That
keeps the medians comparable between seeds while the inputs still differ.

Run ``python3 bench/gen.py --workload eval_bulk --seed 1`` to print a
summary of the first cycle.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

RUNGE_INTERVAL = (-5.0, 5.0)
_STREAMS = {"eval_bulk": 1, "fit_probe": 2, "lebesgue_sweep": 3,
            "cli_runs": 4}

# eval_bulk: (n, d, e, node kind). Builds happen once, in setup.
BULK_CONFIGS = ((64, 12, 4, "equispaced"), (1000, 14, 4, "jittered"),
                (10000, 8, 4, "equispaced"))
BATCH_MIN, BATCH_MAX = 4096, 32768
# One cycle: two requests per interpolant. The small and mid interpolants
# take one batch from each half of [BATCH_MIN, BATCH_MAX]; n = 10000 takes
# one chunk (4096 points, the full dense chunk x (n+1) block) per request,
# so that its latency mode is narrow and holds the tail percentile.
BULK_CYCLE = ((0, "low"), (1, "low"), (2, "fixed"),
              (0, "high"), (1, "high"), (2, "fixed"))
ON_NODE_SHARE = 0.01
_GOLDEN = (5 ** 0.5 - 1) / 2

# fit_probe: the (n, node kind) of each request in a cycle, alternating
# node kinds. n = 64 comes twice so that the median request falls inside
# the dense cluster of cheap builds (n = 64 jittered, n = 200 equispaced),
# not on the edge between two cost modes.
PROBE_CYCLE = ((64, "equispaced"), (64, "jittered"), (200, "equispaced"),
               (200, "jittered"), (64, "equispaced"), (64, "jittered"),
               (1000, "equispaced"), (1000, "jittered"))
PROBE_SIGMA = 1e-3
PROBE_SCALAR_POINTS = 8
PROBE_VECTOR_POINTS = 32
PROBE_BASIS_POINTS = 32

# lebesgue_sweep: the valid cells of the 13 x 13 (d, e) rectangle at n = 64.
SWEEP_N = 64
SWEEP_GRID = 10001
SWEEP_CELLS = tuple((d, e) for d in range(13) for e in range(13) if e <= d)


def _rng(seed, workload, *index):
    return np.random.default_rng([int(seed), _STREAMS[workload], *index])


def runge(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + x * x)


def node_spec(rng, n, kind, interval=RUNGE_INTERVAL):
    """Equispaced nodes as ``(a, b, n)`` (built with ``NodeSet.equispaced``,
    which records the spacing) or jittered nodes as an explicit array."""
    a, b = interval
    if kind == "equispaced":
        return {"kind": kind, "a": a, "b": b, "n": n}
    xs = np.linspace(a, b, n + 1)
    xs[1:-1] += rng.uniform(-0.3, 0.3, n - 1) * ((b - a) / n)
    return {"kind": kind, "xs": xs}


def node_values(spec):
    """The node abscissae a spec describes, as the library computes them."""
    if spec["kind"] == "jittered":
        return spec["xs"]
    a, b, n = spec["a"], spec["b"], spec["n"]
    h = (b - a) / n
    xs = a + h * np.arange(n + 1)
    xs[0], xs[n] = a, b
    return xs


def query_batch(rng, xs, size, on_node_share=ON_NODE_SHARE):
    """Uniform points in ``[x_0, x_n]`` with about ``on_node_share`` of them
    replaced by exact node values. Returns ``(x, on_pos, on_node)``."""
    x = rng.uniform(xs[0], xs[-1], size)
    count = max(1, int(round(on_node_share * size)))
    on_pos = rng.choice(size, count, replace=False)
    on_node = rng.integers(0, xs.size, count)
    x[on_pos] = xs[on_node]
    return x, on_pos, on_node


def de_draw(rng, d_lo=4, d_hi=14, e_max=4):
    d = int(rng.integers(d_lo, d_hi + 1))
    e = int(rng.integers(0, min(d, e_max) + 1))
    return d, e


# -- eval_bulk -------------------------------------------------------------

def bulk_setup(seed):
    """Node specs and Runge samples of the three prebuilt interpolants."""
    rng = _rng(seed, "eval_bulk", 0)
    out = []
    for n, d, e, kind in BULK_CONFIGS:
        spec = node_spec(rng, n, kind)
        out.append({"nodes": spec, "ys": runge(node_values(spec)),
                    "d": d, "e": e})
    return out


def bulk_cycle(seed, k, node_sets):
    """Requests of cycle ``k``: ``(config, x, on_pos, on_node)`` each.

    Batch sizes follow a golden-ratio sequence from a seeded start, so any
    run of cycles covers each half of the size range evenly and the
    latency medians do not depend on the seed.
    """
    rng = _rng(seed, "eval_bulk", 1, k)
    start = dict(zip(("low", "high"), _rng(seed, "eval_bulk", 2).uniform(size=2)))
    half = (BATCH_MAX - BATCH_MIN) // 2
    reqs = []
    for cfg, band in BULK_CYCLE:
        if band == "fixed":
            size = BATCH_MIN
        else:
            u = (start[band] + k * _GOLDEN) % 1.0
            size = BATCH_MIN + half * (band == "high") + int(u * half)
        x, on_pos, on_node = query_batch(rng, node_sets[cfg], size)
        reqs.append((cfg, x, on_pos, on_node))
    return reqs


# -- fit_probe -------------------------------------------------------------

def probe_request(seed, i):
    """One fit-then-query request: fresh nodes, noisy samples, ``(d, e)``,
    8 scalar points (the first on a node), 32 vector points and a basis
    query."""
    rng = _rng(seed, "fit_probe", i)
    n, kind = PROBE_CYCLE[i % len(PROBE_CYCLE)]
    spec = node_spec(rng, n, kind)
    xs = node_values(spec)
    ys = runge(xs) + PROBE_SIGMA * rng.standard_normal(xs.size)
    d, e = de_draw(rng)
    node = int(rng.integers(1, n))
    scalar = np.concatenate([[xs[node]],
                             rng.uniform(xs[0], xs[-1],
                                         PROBE_SCALAR_POINTS - 1)])
    vector = rng.uniform(xs[0], xs[-1], PROBE_VECTOR_POINTS)
    basis_j = int(rng.integers(0, n + 1))
    basis_x = rng.uniform(xs[0], xs[-1], PROBE_BASIS_POINTS)
    return {"nodes": spec, "ys": ys, "d": d, "e": e, "scalar": scalar,
            "scalar_node": node, "vector": vector, "basis_j": basis_j,
            "basis_x": basis_x}


# -- lebesgue_sweep --------------------------------------------------------

def sweep_pass(seed, p):
    """The valid (d, e) cells in the seeded order of pass ``p``."""
    order = _rng(seed, "lebesgue_sweep", p).permutation(len(SWEEP_CELLS))
    return [SWEEP_CELLS[k] for k in order]


# -- cli_runs --------------------------------------------------------------

def cli_cycle(seed):
    """The argv of one rotation, in seeded order. The rotation is the same
    in every cycle of a run, so every invocation repeats and its stdout
    bytes can be compared between repeats. The two scans differ from seed
    to seed only in their sample-noise seed, which leaves their cost alone."""
    rng = _rng(seed, "cli_runs", 0)
    scans = [["scan", "--n", "32", "--dmax", "4", "--emax", "3",
              "--grid", "2001", "--sigma", "0.001",
              "--seed", str(int(s))] for s in rng.integers(0, 2**31, 2)]
    argvs = [["runge-table"],
             ["lebesgue", "--n", "64", "--d", "12", "--e", "4",
              "--interval", "-1", "1"],
             ["eval", "--n", "40", "--d", "14", "--e", "4",
              "--grid", "100001"]] + scans
    return [argvs[k] for k in rng.permutation(len(argvs))]


def cli_warmup():
    return ["lebesgue", "--n", "64", "--d", "12", "--e", "4",
            "--interval", "-1", "1"]


def summary(workload, seed):
    """A JSON-able description of the first cycle of a workload."""
    if workload == "eval_bulk":
        setup = bulk_setup(seed)
        xs = [node_values(c["nodes"]) for c in setup]
        return {"configs": [[c["nodes"]["kind"], xs[i].size - 1, c["d"], c["e"]]
                            for i, c in enumerate(setup)],
                "cycle": [[cfg, x.size, on_pos.size]
                          for cfg, x, on_pos, _ in bulk_cycle(seed, 0, xs)]}
    if workload == "fit_probe":
        reqs = [probe_request(seed, i) for i in range(len(PROBE_CYCLE))]
        return {"cycle": [[r["nodes"]["kind"], node_values(r["nodes"]).size - 1,
                           r["d"], r["e"]] for r in reqs]}
    if workload == "lebesgue_sweep":
        return {"cells": len(SWEEP_CELLS), "first_pass": sweep_pass(seed, 0)}
    if workload == "cli_runs":
        return {"cycle": cli_cycle(seed)}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(_STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(summary(args.workload, args.seed)))


if __name__ == "__main__":
    main()
