import numpy as np
import pytest

from baryblend import ExtParams, Interpolant, NodeSet
from baryblend.oracle import blend_form_value, denominator_sign_scans, fh_value

from .conftest import perturbed_nodes


def runge(x):
    return 1.0 / (1.0 + np.asarray(x) ** 2)


class TestBlendForm:
    def test_singular_at_node(self):
        nodes = NodeSet.equispaced(-1, 1, 8)
        with pytest.raises(ValueError, match="singular"):
            blend_form_value(nodes, np.ones(9), ExtParams(3, 1), float(nodes.xs[2]))

    @pytest.mark.parametrize("x", [np.array([0.1]), [0.1]],
                             ids=["array", "list"])
    def test_array_points_refused(self, x):
        # complex points are checked with the library's, in test_interpolant
        nodes, ys = NodeSet.equispaced(-1.0, 1.0, 4), np.arange(5.0)
        r = Interpolant(nodes, ys, 2)
        with pytest.raises(ValueError):
            blend_form_value(nodes, ys, ExtParams(2, 1), x)
        with pytest.raises(ValueError):
            fh_value(r, x)

    def test_real_scalars_keep_their_bits(self):
        # every real scalar type is read at its float value, and fh_value
        # returns the sample where x snaps to a node
        nodes, ys = NodeSet.equispaced(-1.0, 1.0, 4), np.arange(5.0)
        r, params = Interpolant(nodes, ys, 2), ExtParams(2, 1)
        for x in (0.1, np.float64(0.1), np.array(0.1)):
            assert blend_form_value(nodes, ys, params, x) == 2.1999999999999997
            assert fh_value(r, x) == r.eval(0.1).value
        x32 = np.float32(0.1)
        assert (blend_form_value(nodes, ys, params, x32)
                == blend_form_value(nodes, ys, params, float(x32)))
        assert fh_value(r, x32) == fh_value(r, float(x32))
        for j, v in enumerate(nodes.xs):
            assert fh_value(r, np.nextafter(v, 2.0)) == ys[j]

    def test_reproduces_square_when_degree_allows(self, rng):
        # data from x**2 with d - e >= 2 comes back exactly
        nodes = perturbed_nodes(-1.0, 1.0, 12, rng)
        ys = nodes.xs ** 2
        for d, e in ((4, 2), (6, 3), (8, 4)):
            for x in (-0.931, -0.27, 0.139, 0.88):
                v = blend_form_value(nodes, ys, ExtParams(d, e), x)
                assert v == pytest.approx(x * x, rel=1e-12)

    def test_agrees_with_fast_evaluator(self, rng):
        nodes = NodeSet.equispaced(-1, 1, 12)
        ys = rng.standard_normal(13)
        r = Interpolant(nodes, ys, 6, 3)
        for x in rng.uniform(-0.99, 0.99, 100):
            if nodes.snap_index(float(x)) is not None:
                continue
            a = r.eval(float(x)).value
            b = blend_form_value(nodes, ys, r.params, float(x))
            assert a == pytest.approx(b, rel=1e-10)


def sequential_scan_value(nodes, d, e, x):
    """The normalized denominator at one point ``x``, the same operations as
    :func:`denominator_sign_scans`, with the terms ``i = -e .. n-d+e``
    added one at a time in that order."""
    z = np.concatenate([np.full(e, nodes.a), nodes.xs, np.full(e, nodes.b)])
    diff = x - z
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(diff))
    pre = np.concatenate([[0.0], np.cumsum(logs)])
    suf = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])
    neg = diff < 0.0
    npre = np.concatenate([[0], np.cumsum(neg)])
    nsuf = np.concatenate([np.cumsum(neg[::-1])[::-1], [0]])
    lead = np.arange(nodes.n - d + 2 * e + 1)
    tail = lead + d + 1
    L = pre[lead] + suf[tail]
    sign = np.where((npre[lead] + z.size - tail - nsuf[tail]) % 2, -1.0, 1.0)
    with np.errstate(invalid="ignore"):
        mags = np.exp(L - L.max())
    mags[np.isnan(mags)] = 0.0
    s = norm = 0.0
    for sg, mg in zip(sign * mags, mags):
        s += sg
        norm += mg
    return s / norm


class TestDenominatorSignScan:
    def test_terms_added_in_order_of_i(self, rng):
        # the reports do not depend on how numpy lays out or pairs the sums
        for n in (8, 20):
            nodes = perturbed_nodes(-1.0, 1.0, n, rng)
            grid = np.linspace(-1.0, 1.0, 301)
            for e in (0, 2, 4):
                ds = range(e, min(12, n) + 1)
                for d, rep in zip(ds, denominator_sign_scans(nodes, e, ds, grid)):
                    vals = [sequential_scan_value(nodes, d, e, x) for x in grid]
                    k = int(np.argmin(vals))
                    assert (rep.min_value, rep.argmin_x) == (vals[k], grid[k])

    def test_positive_on_dense_grid(self):
        nodes = NodeSet.equispaced(-1, 1, 16)
        rep = denominator_sign_scans(nodes, 4, [8],
                                     np.linspace(-1, 1, 10001))[0]
        assert rep.all_positive
        assert rep.min_value > 0.0

    def test_lower_endpoint_single_term(self):
        # at x0 exactly one product survives, so the normalized value is 1
        nodes = NodeSet.equispaced(-2, 3, 12)
        for d, e in ((4, 2), (7, 7), (3, 0)):
            rep = denominator_sign_scans(nodes, e, [d],
                                         np.array([nodes.a]))[0]
            assert rep.min_value == pytest.approx(1.0, abs=1e-12)

    def test_upper_endpoint_single_term(self):
        nodes = NodeSet.equispaced(-2, 3, 12)
        rep = denominator_sign_scans(nodes, 3, [5],
                                     np.array([nodes.b]))[0]
        assert rep.min_value == pytest.approx(1.0, abs=1e-12)

    def test_e0_reduces_to_classical_denominator(self, rng):
        nodes = perturbed_nodes(-1.0, 1.0, 10, rng)
        rep = denominator_sign_scans(nodes, 0, [3],
                                     np.linspace(-1, 1, 5001))[0]
        assert rep.all_positive

    def test_rejects_bad_grid(self):
        nodes = NodeSet.equispaced(0, 1, 4)
        with pytest.raises(ValueError):
            denominator_sign_scans(nodes, 1, [2], np.array([np.nan]))

    def test_matches_explicit_small_case(self):
        # n=4, d=2, e=1: brute-force the product terms at a few points
        nodes = NodeSet.equispaced(0, 4, 4)
        d, e = 2, 1
        z = np.concatenate([[nodes.a] * e, nodes.xs, [nodes.b] * e])
        for x in (0.5, 1.7, 3.9):
            mus = []
            for i in range(-e, nodes.n - d + e + 1):
                lead = i + e
                mu = np.prod(x - z[:lead]) * np.prod(z[lead + d + 1:] - x)
                mus.append(mu)
            expected = sum(mus) / sum(abs(m) for m in mus)
            rep = denominator_sign_scans(nodes, e, [d], np.array([x]))[0]
            assert rep.min_value == pytest.approx(expected, rel=1e-12)
