"""The library names the benchmark's span tracer patches still exist and
still take the arguments its span callbacks read.

``bench/spans.py::install`` wraps library functions where their callers
look them up, through ``vars(owner)[attr]``, so a renamed or removed name
fails there with ``KeyError``. A callback reads positional arguments
(``term_rows``' fourth, ``lebesgue_function``'s third) and weight fields,
so a changed signature or field fails only when a span is recorded. These
tests install the tracer on the package, record every span once on small
inputs and take the tracer off again, without running the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_every_span_records(capsys):
    spans = load_spans()
    tracer, names = spans.Tracer(), set()
    wrap = tracer.wrap

    def wrap_named(name, *args):
        names.add(name)
        return wrap(name, *args)

    tracer.wrap = wrap_named
    bb = baryblend
    uninstall = spans.install(tracer, bb)
    tracer.enabled = True
    try:
        r = bb.Interpolant(bb.NodeSet.equispaced(-1.0, 1.0, 16),
                           np.linspace(0.0, 1.0, 17), 6, 2)
        x = np.linspace(-0.95, 0.95, 32)
        r(x), r.eval(0.3), r.basis(3, x)
        bb.interpolant.term_rows(r.nodes, r.params, r.weights, x)
        bb.analysis.lebesgue_function(r.nodes, r.params, 0.3)
        for argv in (["runge-table", "--grid", "11"],
                     ["lebesgue", "--n", "8", "--d", "3", "--e", "1"],
                     ["scan", "--n", "8", "--dmax", "2", "--emax", "1",
                      "--grid", "11"],
                     ["eval", "--n", "8", "--d", "3", "--e", "1", "--at", "0.3"],
                     ["converge", "--configs", "fh:3", "--n-list", "10",
                      "--grid", "11"]):
            assert bb.cli.main(argv) == 0
    finally:
        tracer.enabled = False
        uninstall()
    capsys.readouterr()
    assert len(names) == 17
    assert {rec[spans.NAME] for rec in tracer.spans} == names
    assert all(np.isfinite(v) for v in spans.layer_metrics(tracer.spans).values())
