"""Property-based invariants of the interpolant family."""

from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baryblend import Interpolant, NodeSet
from baryblend.interpolant import end_coefs, pointwise, term_sums
from baryblend.oracle import fh_value

from .conftest import log_perturbed_nodes


def make_case(seed, max_n=24):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(0, n + 1))
    e = int(rng.integers(0, d + 1))
    if rng.random() < 0.5:
        nodes = NodeSet.equispaced(-1.0, 1.0, n)
    else:
        nodes = log_perturbed_nodes(-1.0, 1.0, n, rng)
    ys = rng.uniform(-2.0, 2.0, n + 1)
    return nodes, ys, d, e, rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_node_exactness(seed):
    nodes, ys, d, e, _ = make_case(seed)
    r = Interpolant(nodes, ys, d, e)
    for j in range(nodes.n + 1):
        out = r.eval(float(nodes.xs[j]))
        assert out.at_node == j
        assert out.value - ys[j] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_e0_reduction(seed):
    nodes, ys, d, _, rng = make_case(seed)
    r = Interpolant(nodes, ys, d, 0)
    for x in rng.uniform(-1.1, 1.1, 25):
        a = r.eval(float(x)).value
        b = fh_value(r, float(x))
        assert abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1e-30)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_partition_of_unity(seed):
    nodes, ys, d, e, rng = make_case(seed, max_n=16)
    r = Interpolant(nodes, ys, d, e)
    for x in rng.uniform(-1.0, 1.0, 10):
        total = sum(r.basis(j, float(x)) for j in range(nodes.n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def rescaled_value(r, x, factor):
    """``r(x)`` through the kernel, every stored weight family times
    ``factor``."""
    w = SimpleNamespace(fh=r.weights.fh * factor)
    if r.e > 0:
        w.lower_lead = r.weights.lower_lead * factor
        w.upper_lead = r.weights.upper_lead * factor

    def off_nodes(xo):
        num, den = term_sums(r.nodes.xs, w.fh, xo, r.ys,
                             ends=end_coefs(w, r.nodes, r.params, xo))
        return num / den

    return pointwise(r.nodes, x, r.ys, off_nodes)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_scale_invariance(seed):
    # a power-of-two common rescale of every weight family cancels exactly
    nodes, ys, d, e, rng = make_case(seed)
    r = Interpolant(nodes, ys, d, e)
    for x in rng.uniform(-1.2, 1.2, 15):
        base = r.eval(float(x)).value
        assert rescaled_value(r, float(x), 2.0 ** 50) == base
        assert rescaled_value(r, float(x), 2.0 ** -50) == base


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000),
       st.floats(0.25, 4.0), st.floats(-5.0, 5.0))
def test_translation_scaling_equivariance(seed, alpha, gamma):
    # the construction depends only on node differences
    nodes, ys, d, e, rng = make_case(seed, max_n=16)
    mapped = NodeSet(alpha * nodes.xs + gamma)
    r = Interpolant(nodes, ys, d, e)
    rm = Interpolant(mapped, ys, d, e)
    for x in rng.uniform(-1.0, 1.0, 10):
        a = r.eval(float(x)).value
        b = rm.eval(float(alpha * x + gamma)).value
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), np.abs(ys).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_polynomial_reproduction(seed):
    nodes, _, d, e, rng = make_case(seed, max_n=20)
    deg = d - e
    if deg > 8:
        deg = 8
    coeffs = rng.uniform(-1.0, 1.0, deg + 1)
    poly = np.polynomial.Polynomial(coeffs)
    r = Interpolant(nodes, poly(nodes.xs), d, e)
    scale = max(1.0, np.abs(poly(nodes.xs)).max())
    for x in rng.uniform(-1.0, 1.0, 20):
        assert abs(r.eval(float(x)).value - poly(x)) <= 1e-9 * scale


def test_concurrent_evaluation_matches_sequential():
    # immutable after construction: many threads may share one interpolant
    nodes = NodeSet.equispaced(-1, 1, 32)
    rng = np.random.default_rng(5)
    r = Interpolant(nodes, rng.standard_normal(33), 10, 4)
    xs = rng.uniform(-1.2, 1.2, 400)
    expected = [r.eval(float(x)).value for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda x: r.eval(float(x)).value, xs))
    assert got == expected
