"""The library names the benchmark's span tracer patches still exist.

``bench/spans.py::install`` wraps library functions where their callers
look them up, through ``vars(owner)[attr]``, so a renamed or removed name
fails there with ``KeyError``. This test installs the tracer on the
package and takes it off again, without running the benchmark.
"""

import importlib.util
from pathlib import Path

import baryblend
import baryblend.cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owners():
    bb = baryblend
    return [bb.analysis, bb.cli, bb.interpolant, bb.nodes, bb.weights,
            bb.interpolant.Interpolant, bb.nodes.NodeSet,
            bb.weights.PrecomputedWeights]


def test_span_tracer_installs_and_restores():
    spans = load_spans()
    before = [dict(vars(owner)) for owner in owners()]
    uninstall = spans.install(spans.Tracer(), baryblend)
    try:
        patched = sum(vars(owner)[attr] is not value
                      for owner, names in zip(owners(), before)
                      for attr, value in names.items())
        assert patched > 0
    finally:
        uninstall()
    for owner, names in zip(owners(), before):
        now = vars(owner)
        assert set(now) == set(names)
        assert all(now[attr] is value for attr, value in names.items())
