"""Property-based invariants of the interpolant family."""

from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from baryblend import (ChebyshevBaseline, CubicSplineBaseline, Interpolant,
                       NodeSet, lebesgue_function)
from baryblend.analysis import get_function
from baryblend.interpolant import pointwise, term_sums
from baryblend.oracle import _blend_functions, fh_value

from .conftest import log_perturbed_nodes

U = np.finfo(float).eps / 2    # unit roundoff of IEEE double


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
    w = SimpleNamespace(fh=r.weights.fh * factor, nodes=r.nodes,
                        params=r.params, e=r.e)
    if r.e > 0:
        w.lower_lead = r.weights.lower_lead * factor
        w.upper_lead = r.weights.upper_lead * factor
    w.ends = tuple((end, xe, lead * factor, fh * factor)
                   for end, xe, lead, fh in r.weights.ends)
    w.end_lists = tuple((end, *(a.tolist() for a in ops)) for end, *ops in w.ends)

    def off_nodes(xo):
        num, den = term_sums(w, xo, r.ys)
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


def equivariance_bound(r, x, a, delta):
    """The first-order bound on ``|a - b|`` that
    :func:`test_translation_scaling_equivariance` derives, at ``x``.

    ``a`` is the computed ``r(x)``; ``delta(v)`` bounds how far the
    rounding of ``alpha*v + gamma`` moves ``v`` in ``r``'s coordinates.
    """
    xs, ys, n, d, e = r.nodes.xs, r.ys, r.nodes.n, r.d, r.e
    kappa = 6 * (d + e) + n + 12
    dx = delta(x)
    total = den = 0.0
    for phi, i, j in _blend_functions(r.nodes, r.params, x):
        w = xs[i:j + 1]
        gaps = w[:, None] - w[None, :]
        np.fill_diagonal(gaps, 1.0)
        # s_ik = phi_i l_ik(x), the summand of t_k from local interpolant i
        s = np.abs(phi * np.prod((x - w)[None, :] / gaps, axis=1) / (x - w))
        # relative moves of its d + 1 differences: x - x_k, x_k - x_l, and
        # d - (j - i) repeats of x - x_0 or x - x_n for an end interpolant
        dw = delta(w)
        moves = (dw[:, None] + dw[None, :]) / np.abs(gaps)
        np.fill_diagonal(moves, 0.0)
        rho = (dx + dw) / np.abs(x - w) + moves.sum(axis=1)
        if j - i < d:
            xe = xs[0] if i == 0 else xs[n]
            rho += (d - (j - i)) * (dx + delta(xe)) / abs(x - xe)
        yk = ys[i:j + 1]
        total += np.sum(s * (rho * np.abs(yk - a)
                             + 2 * kappa * U * (np.abs(yk) + abs(a))))
        den += phi
    return total / abs(den)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000),
       st.floats(0.25, 4.0), st.floats(-5.0, 5.0))
@example(seed=1724, alpha=3.3653590931891166, gamma=0.0)
def test_translation_scaling_equivariance(seed, alpha, gamma):
    """The construction depends only on node differences, so ``r`` on the
    nodes ``x_k`` at ``x`` equals ``rm`` on ``alpha*x_k + gamma`` at
    ``alpha*x + gamma`` in exact arithmetic. The computed values ``a`` and
    ``b`` differ by rounding, bounded to first order as follows.

    Blend form: ``r(x) = sum_k t_k y_k / sum_k t_k`` with
    ``t_k = sum_i s_ik``, ``s_ik = phi_i(x) l_ik(x)`` over the local
    interpolants ``i`` through node ``k``. Each ``s_ik`` is a product of
    ``d + 1`` inverse differences: ``x - x_k``, ``x_k - x_l`` for the other
    nodes ``l`` of ``i``, and ``x - x_0`` (or ``x - x_n``) repeated
    ``d - (j - i)`` times for an end interpolant through ``i .. j``.

    1. Mapping. Each ``alpha*v + gamma`` rounds once in the product and
       once in the sum, so it equals ``alpha*(v + delta_v) + gamma`` with
       ``|delta_v| <= u (|alpha v| + |alpha v + gamma|) / alpha``: ``rm`` is
       ``r`` for moved nodes and a moved point. A difference ``p - q`` then
       moves by at most ``rho_pq = (|delta_p| + |delta_q|) / |p - q|``
       relative, ``s_ik`` by ``rho_ik``, the sum of ``rho_pq`` over its
       factors, and since ``sum_k t_k (y_k - r) = 0``,
       ``|r_mapped - r| <= sum_ik |s_ik| rho_ik |y_k - r| / |sum_k t_k|``.
    2. Evaluation, for each of ``a`` and ``b``. Measured against
       ``sum_i |s_ik|``, a computed ``t_k`` carries at most
       ``6(d + e) + 10`` roundings: per weight factor a difference, a
       scaling and a product, then the inverse, the window sum and the
       normaliser; per Horner step a difference, two products, the
       subtraction from 1 and the two roundings of ``1/(x - x_0)``; the
       end weight, ``x - x_k`` and the quotient. Adding ``n + 1`` terms from
       0.0, the product with ``y_k`` and the final quotient add ``n + 2``,
       so with ``kappa = 6(d + e) + n + 12`` (the form of Higham, IMA J.
       Numer. Anal. 24 (2004), that criterion 1 uses)
       ``|a - r| <= kappa u sum_ik |s_ik| (|y_k| + |r|) / |sum_k t_k|``.

    ``r`` is replaced by ``a`` in both parts, a second-order change. At
    seed 1724 (``n, d, e = 14, 11, 0``, ``x = -0.97964``, ``r = 3117.6``
    from samples of at most 1.87, ``Lambda(x) = 6819``) the two exact
    interpolants differ by 8.6e-13, and ``a`` and ``b`` are 8.2e-10 and
    4.1e-9 from them (50-digit values): the 3.3e-9 gap is evaluation
    rounding at an ill-conditioned point, well inside part 2.
    """
    nodes, ys, d, e, rng = make_case(seed, max_n=16)
    mapped = NodeSet(alpha * nodes.xs + gamma)
    r = Interpolant(nodes, ys, d, e)
    rm = Interpolant(mapped, ys, d, e)

    def delta(v):
        return U * (np.abs(alpha * v) + np.abs(alpha * v + gamma)) / alpha

    for x in rng.uniform(-1.0, 1.0, 10):
        a = r.eval(float(x)).value
        b = rm.eval(float(alpha * x + gamma)).value
        assert abs(a - b) <= equivariance_bound(r, float(x), a, delta)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2.0 ** -3, 2.0, 2.0 ** 5,
                                                 2.0 ** 40]))
def test_power_of_two_scaling_is_exact(seed, alpha):
    # alpha = 2**k scales every node, spacing, difference and weight
    # exactly, so the ratio keeps every bit
    nodes, ys, d, e, rng = make_case(seed, max_n=16)
    if nodes.is_equispaced:
        mapped = NodeSet.equispaced(alpha * nodes.a, alpha * nodes.b, nodes.n)
    else:
        mapped = NodeSet(alpha * nodes.xs)
    assert np.array_equal(mapped.xs, alpha * nodes.xs)
    r = Interpolant(nodes, ys, d, e)
    rm = Interpolant(mapped, ys, d, e)
    x = rng.uniform(-1.1, 1.1, 10)
    for v in x:
        assert rm.eval(alpha * v) == r.eval(v)
    assert np.array_equal(rm(alpha * x).view(np.int64), r(x).view(np.int64))


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


def edge_points(nodes, rng):
    """Points at the snap tolerance of a few nodes and one ulp either side
    of it, points just and well outside ``[a, b]``, and two inside."""
    n = nodes.n
    pts = []
    for j in {0, 1, int(rng.integers(0, n + 1)), n - 1, n}:
        tol = nodes.snap_radii[j]
        for p in (nodes.xs[j] - tol, nodes.xs[j] + tol):
            pts += [p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)]
    span = nodes.b - nodes.a
    pts += [nodes.a - span / 4, np.nextafter(nodes.a, -np.inf),
            np.nextafter(nodes.b, np.inf), nodes.b + span / 4]
    pts += list(rng.uniform(nodes.a, nodes.b, 2))
    return np.array(pts, dtype=float)


def reference_snap(nodes, x):
    """Snap rule on Python floats: the nearer of the two nodes around
    ``x`` (the lower on a tie), if ``x`` is within its radius
    ``4*eps*max(|x_j|, h)``, ``h = (b - a)/n``; else -1."""
    xs, n = nodes.xs.tolist(), nodes.n
    h = (nodes.b - nodes.a) / n
    i = bisect_left(xs, x)
    lo, hi = max(i - 1, 0), min(i, n)
    j = lo if abs(x - xs[lo]) <= abs(x - xs[hi]) else hi
    return j if abs(x - xs[j]) <= 8.0 * U * max(abs(xs[j]), h) else -1


def check_snap_radii(nodes):
    """The cached radius of every node is ``4*eps*max(|x_j|, h)`` and
    read-only; at each node's ``x_j +- radius`` and one ulp either side of
    it, ``snap_index``, ``snap_indices`` and :func:`reference_snap` agree,
    and the point one ulp inward snaps to the node."""
    h = (nodes.b - nodes.a) / nodes.n
    radii = [8.0 * U * max(abs(v), h) for v in nodes.xs.tolist()]
    assert nodes.snap_radii.tolist() == radii
    assert not nodes.snap_radii.flags.writeable
    pts = []
    for j, (xj, rad) in enumerate(zip(nodes.xs.tolist(), radii)):
        for p in (xj - rad, xj + rad):
            pts += [p, float(np.nextafter(p, -np.inf)),
                    float(np.nextafter(p, np.inf))]
            assert nodes.snap_index(float(np.nextafter(p, xj))) == j
    vector = nodes.snap_indices(np.array(pts)).tolist()
    scalar = [nodes.snap_index(x) for x in pts]
    assert [-1 if j is None else j for j in scalar] == vector
    assert vector == [reference_snap(nodes, x) for x in pts]


@pytest.mark.parametrize("k", [-40, -20, -1, 0, 1, 20, 40])
@pytest.mark.parametrize("kind", ["equispaced", "general"])
def test_snap_radii_are_cached_exactly(k, kind):
    # both constructors share one radius computation: equispaced's recorded
    # h is the (b - a)/n of its end nodes, bit for bit
    rng = np.random.default_rng(k + 100)
    a, b, n = -0.7 * 2.0 ** k, 1.3 * 2.0 ** k, 23
    if kind == "equispaced":
        nodes = NodeSet.equispaced(a, b, n)
        assert nodes.spacing == (b - a) / n == nodes.reference_spacing()
    else:
        xs = np.linspace(a, b, n + 1)
        xs[1:-1] += rng.uniform(-0.3, 0.3, n - 1) * (b - a) / n
        nodes = NodeSet(xs)
    check_snap_radii(nodes)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1e-200, 1.0, 1e200]),
       st.booleans())
def test_scalar_matches_vector_at_the_edges(seed, scale, compensated):
    # scalars snap through snap_index and batches through snap_indices:
    # the two must agree, and so must every scalar and batch result, bit
    # for bit, on clustered nodes of tiny and huge intervals
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    d = int(rng.integers(0, n + 1))
    e = int(rng.integers(0, d + 1))
    cheb = -np.cos(np.pi * np.arange(n + 1) / n)
    nodes = NodeSet(scale * (cheb + rng.uniform(-2.0, 2.0)))
    r = Interpolant(nodes, rng.uniform(-2.0, 2.0, n + 1), d, e,
                    compensated=compensated)
    check_snap_radii(nodes)
    pts = edge_points(nodes, rng)
    snap = nodes.snap_indices(pts)
    j = int(rng.integers(0, n + 1))
    vector = [r(pts), r.basis(j, pts),
              lebesgue_function(nodes, r.params, pts)]
    scalar = [[], [], []]
    for x, s in zip(pts, snap):
        got = nodes.snap_index(x)
        assert (-1 if got is None else got) == s
        out = r.eval(x)
        assert out.at_node == (None if s < 0 else s)
        scalar[0].append(out.value)
        scalar[1].append(r.basis(j, x))
        scalar[2].append(lebesgue_function(nodes, r.params, x))
    for s, v in zip(scalar, vector):
        assert np.array_equal(np.array(s).view(np.int64), v.view(np.int64))
    assert np.array_equal(np.array([r(x) for x in pts]).view(np.int64),
                          vector[0].view(np.int64))
    # one point keeps its return types, on and off the nodes: a scalar
    # gives a float, a one-point array an array (the baselines on nodes of
    # unit scale, where the spline's slopes are finite)
    fits = [(r, 1.0), (lambda x: r.basis(j, x), 1.0),
            (lambda x: lebesgue_function(nodes, r.params, x), 1.0),
            (ChebyshevBaseline(get_function("runge"), n), 1.0)]
    if n >= 3:
        unit = NodeSet(nodes.xs / scale)
        fits.append((CubicSplineBaseline(unit, r.ys), scale))
    for x in (float(nodes.xs[j]), float(pts[-1])):
        assert type(r.eval(x).value) is float
        for fit, s in fits:
            one, arr = fit(x / s), fit(np.array([x / s]))
            assert type(one) is float
            assert type(arr) is np.ndarray and arr.shape == (1,)
            assert arr.view(np.int64)[0] == np.array(one).view(np.int64)


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
