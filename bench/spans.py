"""In-memory span tracer for the benchmark's traced runs.

:func:`install` wraps the public functions of each library module
(``nodes``, ``weights``, ``interpolant``, ``analysis``, ``cli``) at the
place where their callers look them up: class attributes for methods,
module globals for functions (``baryblend.analysis.term_rows`` and
``baryblend.interpolant.term_rows`` are both patched, for instance). A span
stores its name, start, end, parent and request id; spans stay in memory
and are written out when the run ends. :func:`layer_metrics` turns them
into the per-layer metrics of ``BENCHMARK.json``.

Self time is a span's duration minus the time its child spans cover. All
work is single-threaded and synchronous, so children never overlap and
nothing waits: the tracer records no wait times.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

# Span record fields.
NAME, START, END, PARENT, REQ, ATTRS = range(6)


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through
    otherwise (the benchmark's own output checks run with it off)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.req = -1
        self.enabled = False

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kw):
            if not self.enabled:
                return fn(*args, **kw)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.req, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, out)
            return out

        return traced

    def extend(self, spans, req):
        """Append spans recorded by another process (a traced CLI child),
        re-rooted under request ``req``."""
        base = len(self.spans)
        for name, start, end, parent, _req, attrs in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, req, attrs])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _term_rows_attrs(args, _out):
    return {"points": int(np.size(args[3]))}


def _call_attrs(args, _out):
    interp, x = args[0], args[1]
    pts = int(np.size(x))
    return {"points": pts, "pt_nodes": pts * (interp.nodes.n + 1)}


def _snap_indices_attrs(args, out):
    return {"points": int(np.size(out)), "hits": int(np.count_nonzero(out >= 0))}


def _snap_index_attrs(_args, out):
    return {"points": 1, "hits": int(out is not None)}


def _lebesgue_function_attrs(args, _out):
    x = args[2]
    return {"scalar": int(np.isscalar(x) or np.ndim(x) == 0)}


def _build_attrs(args, _out):
    weights, nodes = args[0], args[1]
    stored = sum(row.size for row in weights.lower + weights.upper)
    used = (weights.lower_lead.size + weights.upper_lead.size
            if weights.e > 0 else 0)
    return {"equispaced": int(nodes.is_equispaced), "stored": stored,
            "used": used}


CSV_FUNCTIONS = ("scan_csv", "converge_csv", "runge_table_csv",
                 "lebesgue_csv", "eval_csv")


def install(tracer, bb):
    """Wrap the library's public functions in ``tracer`` spans.

    ``bb`` is the imported ``baryblend`` package (with ``baryblend.cli``
    imported). Returns a function that puts the originals back.
    """
    an, cli, it, nd, wt = bb.analysis, bb.cli, bb.interpolant, bb.nodes, bb.weights
    saved = []

    def patch(owners, attr, name, attrs=None):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), attrs)
        for owner in owners:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)

    patch([it.Interpolant], "__call__", "interpolant.call", _call_attrs)
    patch([it.Interpolant], "eval", "interpolant.eval")
    patch([it.Interpolant], "basis", "interpolant.basis")
    patch([it], "zeta_eta", "interpolant.zeta_eta")
    patch([it, an], "term_rows", "interpolant.term_rows", _term_rows_attrs)
    patch([nd.NodeSet], "snap_indices", "nodes.snap_indices", _snap_indices_attrs)
    patch([nd.NodeSet], "snap_index", "nodes.snap_index", _snap_index_attrs)
    patch([wt.PrecomputedWeights], "__init__", "weights.build", _build_attrs)
    patch([wt], "fh_weights", "weights.fh_weights")
    patch([wt], "end_weight_tables", "weights.end_weight_tables")
    patch([an], "lebesgue_function", "analysis.lebesgue_function",
          _lebesgue_function_attrs)
    patch([an, cli], "lebesgue_constant", "analysis.lebesgue_constant")
    patch([an], "error_report", "analysis.error_report")
    patch([an, cli], "runge_error_table", "analysis.runge_error_table")
    patch([an, cli], "scan_de", "analysis.scan_de")
    for attr in CSV_FUNCTIONS:
        patch([cli], attr, "analysis.csv")
    patch([cli], "main", "cli.main")

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def aggregate(spans):
    """Per span name: calls, total and self seconds, summed attributes."""
    child = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    agg = defaultdict(lambda: defaultdict(float))
    for i, rec in enumerate(spans):
        a = agg[rec[NAME]]
        dur = rec[END] - rec[START]
        a["calls"] += 1
        a["total_s"] += dur
        a["self_s"] += dur - child[i]
        for key, val in (rec[ATTRS] or {}).items():
            a[key] += val
    return agg


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans):
    """The per-layer metrics derived from spans, by name (units are in
    ``BENCHMARK.json``).

    Layers a workload does not reach read 0.
    """
    agg = aggregate(spans)
    g = lambda name, key: agg[name][key] if name in agg else 0.0
    builds = [r for r in spans if r[NAME] == "weights.build"]
    eq = [r[END] - r[START] for r in builds if r[ATTRS]["equispaced"]]
    gen = [r[END] - r[START] for r in builds if not r[ATTRS]["equispaced"]]
    snap_pts = g("nodes.snap_indices", "points") + g("nodes.snap_index", "points")
    snap_hits = g("nodes.snap_indices", "hits") + g("nodes.snap_index", "hits")
    return {
        "interpolant.call.ns_per_pt_node": _ratio(
            g("interpolant.call", "self_s"), g("interpolant.call", "pt_nodes"), 1e9),
        "interpolant.call.self_s": g("interpolant.call", "self_s"),
        "interpolant.call.points": g("interpolant.call", "points"),
        "interpolant.eval.us_per_call": _ratio(
            g("interpolant.eval", "total_s"), g("interpolant.eval", "calls"), 1e6),
        "interpolant.zeta_eta.self_s": g("interpolant.zeta_eta", "self_s"),
        "interpolant.basis.self_s": g("interpolant.basis", "self_s"),
        "weights.build.calls": g("weights.build", "calls"),
        "weights.build.general_ms_per_call": _ratio(sum(gen), len(gen), 1e3),
        "weights.build.equispaced_ms_per_call": _ratio(sum(eq), len(eq), 1e3),
        "weights.fh_weights.self_s": g("weights.fh_weights", "self_s"),
        "weights.end_weight_tables.self_s": g("weights.end_weight_tables", "self_s"),
        "weights.end_tables.used_ratio": _ratio(
            g("weights.build", "used"), g("weights.build", "stored")),
        "nodes.snap_indices.calls": g("nodes.snap_indices", "calls"),
        "nodes.snap_indices.points": g("nodes.snap_indices", "points"),
        "nodes.snap_indices.self_s": g("nodes.snap_indices", "self_s"),
        "nodes.snap_index.self_s": g("nodes.snap_index", "self_s"),
        "nodes.snap.hit_ratio": _ratio(snap_hits, snap_pts),
        "analysis.lebesgue_function.calls": g("analysis.lebesgue_function", "calls"),
        "analysis.lebesgue_function.scalar_calls": g("analysis.lebesgue_function", "scalar"),
        "analysis.lebesgue_function.self_s": g("analysis.lebesgue_function", "self_s"),
        "interpolant.term_rows.calls": g("interpolant.term_rows", "calls"),
        "interpolant.term_rows.points": g("interpolant.term_rows", "points"),
        "interpolant.term_rows.self_s": g("interpolant.term_rows", "self_s"),
        "analysis.lebesgue_constant.self_s": g("analysis.lebesgue_constant", "self_s"),
        "analysis.error_report.self_s": g("analysis.error_report", "self_s"),
        "cli.main.self_s": g("cli.main", "self_s"),
        "analysis.csv.self_s": g("analysis.csv", "self_s"),
        "analysis.runge_error_table.self_s": g("analysis.runge_error_table", "self_s"),
    }
