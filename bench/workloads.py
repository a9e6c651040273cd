"""The four benchmark workloads.

Each workload builds what it needs from :mod:`gen` in its constructor
(the set-up that ``setup_s`` measures), yields requests from
:meth:`requests`, serves one in :meth:`run` (the only timed call) and
verifies its output in :meth:`check`, which runs outside the timed region
and returns a list of problems (empty when the request is correct).

Library functions are always reached through the ``baryblend`` module
attributes, so a traced run sees them through the span wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import gen

# Relative error allowed against the blend-form oracle, relative to the
# larger magnitude and floored at the data scale (acceptance criterion 2).
ORACLE_RTOL = 1e-10
HERE = os.path.dirname(os.path.abspath(__file__))


def _oracle_problem(bb, nodes, ys, params, x, value):
    ref = bb.oracle.blend_form_value(nodes, ys, params, x)
    scale = max(abs(value), abs(ref), float(np.abs(ys).max()))
    if not abs(value - ref) <= ORACLE_RTOL * scale:
        return f"oracle mismatch at x={x!r}: {value!r} vs {ref!r}"
    return None


def _nodes(bb, spec):
    if spec["kind"] == "equispaced":
        return bb.nodes.NodeSet.equispaced(spec["a"], spec["b"], spec["n"])
    return bb.nodes.NodeSet(spec["xs"])


class EvalBulk:
    """Vectorized ``r(x)`` on large seeded batches of three prebuilt
    interpolants."""

    name = "eval_bulk"
    speed_part = "memory"
    cycle = len(gen.BULK_CYCLE)
    # Oracle checks are slow at large n: check every `_ORACLE_EVERY[cfg]`-th
    # cycle of each interpolant.
    _ORACLE_EVERY = (1, 3, 8)

    def __init__(self, bb, seed):
        self.bb, self.seed = bb, seed
        self.interps = []
        for c in gen.bulk_setup(seed):
            self.interps.append(bb.interpolant.Interpolant(
                _nodes(bb, c["nodes"]), c["ys"], c["d"], c["e"]))
        self.node_sets = [r.nodes.xs for r in self.interps]

    def requests(self):
        i = k = 0
        while True:
            for req in gen.bulk_cycle(self.seed, k, self.node_sets):
                yield i, (k, *req)
                i += 1
            k += 1

    def warmup(self):
        self.run(next(self.requests()))

    def run(self, item):
        _i, (_k, cfg, x, _on_pos, _on_node) = item
        return x.size, self.interps[cfg](x)

    def check(self, item, out):
        i, (k, cfg, x, on_pos, on_node) = item
        r = self.interps[cfg]
        problems = []
        if out.shape != x.shape or not np.all(np.isfinite(out)):
            return ["output shape or finiteness"]
        if not np.array_equal(out[on_pos], r.ys[on_node]):
            problems.append("snapped points do not return their samples")
        off = np.setdiff1d(np.arange(x.size), on_pos)
        rng = np.random.default_rng([self.seed, 101, i])
        for p in (on_pos[0], *rng.choice(off, 2, replace=False)):
            if r.eval(x[p]).value != out[p]:
                problems.append(f"scalar != vector at x={x[p]!r}")
        if k % self._ORACLE_EVERY[cfg] == 0:
            p = int(rng.choice(off))
            problems.append(_oracle_problem(self.bb, r.nodes, r.ys, r.params,
                                            x[p], float(out[p])))
        return [p for p in problems if p]


class FitProbe:
    """Fit fresh data, then ask it a few questions."""

    name = "fit_probe"
    speed_part = "python"
    cycle = len(gen.PROBE_CYCLE)
    _ORACLE_EVERY = 100

    def __init__(self, bb, seed):
        self.bb, self.seed = bb, seed

    def requests(self):
        i = 0
        while True:
            yield i, gen.probe_request(self.seed, i)
            i += 1

    def warmup(self):
        self.run(next(self.requests()))

    def run(self, item):
        _i, q = item
        bb = self.bb
        r = bb.interpolant.Interpolant(_nodes(bb, q["nodes"]), q["ys"],
                                       q["d"], q["e"])
        scalar = [r.eval(x) for x in q["scalar"]]
        vector = r(q["vector"])
        basis = r.basis(q["basis_j"], q["basis_x"])
        points = len(scalar) + vector.size + basis.size
        return points, (r, scalar, vector, basis)

    def check(self, item, out):
        i, q = item
        r, scalar, vector, basis = out
        problems = []
        if not (np.all(np.isfinite(vector)) and np.all(np.isfinite(basis))):
            problems.append("non-finite vector or basis output")
        on = scalar[0]
        if on.at_node != q["scalar_node"] or on.value != r.ys[q["scalar_node"]]:
            problems.append("snapped point does not return its sample")
        again = r(q["scalar"])
        if any(s.value != v for s, v in zip(scalar, again)):
            problems.append("scalar eval != vector r(x)")
        if i % self._ORACLE_EVERY == 0:
            problems.append(_oracle_problem(self.bb, r.nodes, r.ys, r.params,
                                            q["scalar"][1], scalar[1].value))
        return [p for p in problems if p]


class LebesgueSweep:
    """One (d, e) cell of the n = 64 Runge scan per request."""

    name = "lebesgue_sweep"
    speed_part = "python"
    cycle = len(gen.SWEEP_CELLS)
    _CHECK_EVERY = 4

    def __init__(self, bb, seed):
        self.bb, self.seed = bb, seed
        self.f = bb.analysis.get_function("runge")
        self.grid = bb.analysis.GridSpec(gen.SWEEP_GRID)

    def requests(self):
        p = 0
        while True:
            for i, cell in enumerate(gen.sweep_pass(self.seed, p)):
                yield p * len(gen.SWEEP_CELLS) + i, cell
            p += 1

    def warmup(self):
        self.run(next(self.requests()))

    def run(self, item):
        _i, (d, e) = item
        res = self.bb.analysis.scan_de(self.f, gen.SWEEP_N, [d], [e], self.grid)
        return gen.SWEEP_GRID, res

    def check(self, item, res):
        i, (d, e) = item
        cell = res.cells[0]
        if (cell.d, cell.e) != (d, e) or cell.lebesgue is None:
            return ["missing cell"]
        problems = []
        if not (np.isfinite(cell.linf) and np.isfinite(cell.l1)
                and cell.linf >= 0 and cell.l1 >= 0):
            problems.append("error norms not finite and non-negative")
        if not cell.lebesgue >= 1.0:
            problems.append(f"Lebesgue constant {cell.lebesgue!r} < 1")
        if i % self._CHECK_EVERY == 0:
            an = self.bb.analysis
            nodes = self.bb.nodes.NodeSet.equispaced(*self.f.interval, gen.SWEEP_N)
            params = self.bb.weights.ExtParams(d, e)
            grid = an.GridSpec(count=max(10 * nodes.n, 2),
                               per_subinterval=10 * (d + 1))
            raw = an.lebesgue_function(nodes, params,
                                       grid.points(nodes.a, nodes.b, nodes)).max()
            if not cell.lebesgue >= raw:
                problems.append(f"Lebesgue estimate {cell.lebesgue!r} below "
                                f"the grid maximum {raw!r}")
        return problems


def cli_points(argv):
    """Evaluation points an invocation asks for, counted from its argv."""
    opt = dict(zip(argv[1::2], argv[2::2]))
    grid = int(opt.get("--grid", 100001))
    if argv[0] == "runge-table":
        return 2 * 5 * grid
    if argv[0] == "eval":
        return grid
    if argv[0] == "lebesgue":
        return 10 * int(opt["--n"]) * (int(opt["--d"]) + 1) + 1
    dmax, emax = int(opt["--dmax"]), int(opt["--emax"])
    cells = sum(1 for d in range(dmax + 1) for e in range(emax + 1) if e <= d)
    return cells * grid


class CliRuns:
    """A seeded rotation of fresh ``baryblend`` processes, one at a time."""

    name = "cli_runs"
    speed_part = "process"

    def __init__(self, bb, seed):
        self.seed = seed
        self.argvs = gen.cli_cycle(seed)
        self.cycle = len(self.argvs)
        # Set by traced runs: children write spans to `trace_out`, which
        # `check` folds into `tracer` under the request's id.
        self.trace_out = None
        self.tracer = None
        self.digests = {}
        self.child_rss_kb = []

    def requests(self):
        i = 0
        while True:
            yield i, self.argvs[i % self.cycle]
            i += 1

    def warmup(self):
        self.spawn(gen.cli_warmup())
        self.child_rss_kb.clear()

    def spawn(self, argv):
        """Run one child to completion; returns ``(stdout, exit code)``."""
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py")]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        proc = subprocess.Popen(cmd + ["--"] + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 reaps the child and gives its own peak RSS.
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return out, proc.returncode

    def run(self, item):
        _i, argv = item
        return cli_points(argv), self.spawn(argv)

    def check(self, item, out):
        i, argv = item
        if self.tracer is not None and os.path.exists(self.trace_out):
            with open(self.trace_out) as fh:
                self.tracer.extend(json.load(fh), i)
            os.remove(self.trace_out)
        stdout, code = out
        if code != 0:
            return [f"exit {code}: {' '.join(argv)}"]
        if not stdout:
            return [f"empty stdout: {' '.join(argv)}"]
        digest = hashlib.sha256(stdout).hexdigest()
        first = self.digests.setdefault(tuple(argv), digest)
        if digest != first:
            return [f"stdout differs between identical runs: {' '.join(argv)}"]
        return []


WORKLOADS = {w.name: w for w in (EvalBulk, FitProbe, LebesgueSweep, CliRuns)}
