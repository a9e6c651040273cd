from math import comb, factorial

import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from baryblend import (ExtParams, Interpolant, NodeSet, PrecomputedWeights,
                       interpolant, lebesgue_constant, lebesgue_function,
                       weights)
from baryblend.weights import _BLOCK, end_weight_tables, fh_weights

from .conftest import (barycentric_product, log_perturbed_nodes,
                       perturbed_nodes)


def brute_force_fh(xs, d):
    """The defining sum, term by term, with raw (unscaled) products."""
    n = len(xs) - 1
    w = np.zeros(n + 1)
    for j in range(n + 1):
        s = 0.0
        for i in range(max(0, j - d), min(j, n - d) + 1):
            p = 1.0
            for l in range(i, i + d + 1):
                if l != j:
                    p /= xs[j] - xs[l]
            s += p if i % 2 == 0 else -p
        w[j] = s
    return w


def window_loop_fh(nodes, d):
    """:func:`fh_weights` as a plain loop, one window (or one binomial sum)
    at a time: the bit-level reference for the vectorized build."""
    xs = nodes.xs
    n = nodes.n
    w = np.zeros(n + 1)
    if nodes.is_equispaced:
        fact = factorial(d)
        for j in range(n + 1):
            s = sum(comb(d, j - i)
                    for i in range(max(0, j - d), min(j, n - d) + 1))
            w[j] = (s if (j - d) % 2 == 0 else -s) / fact
        return w
    c = nodes.reference_spacing()
    for i in range(n - d + 1):
        block = xs[i:i + d + 1]
        m = (block[:, None] - block[None, :]) / c
        np.fill_diagonal(m, 1.0)
        prod = 1.0 / np.prod(m, axis=1)
        if i % 2:
            prod = -prod
        w[i:i + d + 1] += prod
    return w


def full_end_weight_tables(nodes, params):
    """All ``e`` rows of each end table, one row at a time, each from its
    own products or factorial quotients: the bit-level reference for the
    lead rows that the builds form, ``lower[-1]`` and ``upper[0]``."""
    d, e = params.d, params.e
    n = nodes.n
    xs = nodes.xs
    lower = []
    upper = []
    if e == 0:
        return lower, upper
    c = nodes.reference_spacing()
    for i in range(d - e, d):
        if nodes.is_equispaced:
            row = np.array([
                (-1.0 if (i - j) % 2 else 1.0) * c ** (d - i)
                / (factorial(j) * factorial(i - j))
                for j in range(i + 1)
            ])
        else:
            block = xs[:i + 1]
            m = (block[:, None] - block[None, :]) / c
            np.fill_diagonal(m, 1.0)
            row = (1.0 / np.prod(m, axis=1)) * c ** (d - i)
        lower.append(row)
    for i in range(n - d + 1, n - d + e + 1):
        if nodes.is_equispaced:
            row = np.array([
                (-1.0 if (n - j) % 2 else 1.0) * c ** (d - (n - i))
                / (factorial(j - i) * factorial(n - j))
                for j in range(i, n + 1)
            ])
        else:
            block = xs[i:]
            m = (block[:, None] - block[None, :]) / c
            np.fill_diagonal(m, 1.0)
            row = (1.0 / np.prod(m, axis=1)) * c ** (d - (n - i))
        upper.append(row)
    return lower, upper


def bit_cases():
    for n in (1, 2, 5, 64, 1000):
        for d in sorted({0, 1, min(14, n)} | ({n} if n <= 200 else set())):
            yield n, d
    # 32768 // 17 = 1,927 windows per chunk: the second chunk starts at an
    # odd window, so its first window takes the negative sign
    yield 2000, 16
    # one chunk, one factor pass and one end-row slice at 2**15 doubles; a
    # second pass needs d >= 181, where products of d factors leave the
    # double range (d! does from d = 171); under the small budget of
    # test_budget_moves_no_bit, d = 100 takes its factors in passes of 2
    # and its end rows in slices of 1
    yield 1000, 13
    yield 200, 100
    # 32768 // 260 = 126 rows a slice: the end rows take two slices
    yield 200, 130


def unscale(nodes, d):
    """The factor that turns :func:`fh_weights` and the end tables into
    raw products: ``c**(-d)``, ``c`` the reference spacing."""
    return nodes.reference_spacing() ** -d


class TestFhWeights:
    def test_d0_alternating_unit_weights(self):
        nodes = NodeSet.equispaced(-1, 1, 4)
        w = fh_weights(nodes, 0)
        assert w.tolist() == [1.0, -1.0, 1.0, -1.0, 1.0]

    def test_unit_spacing_d1(self):
        nodes = NodeSet.equispaced(0, 2, 2)
        w = fh_weights(nodes, 1)
        assert w.tolist() == [-1.0, 2.0, -1.0]

    def test_d_equals_n_gives_polynomial_weights(self, rng):
        # single-term sums: the classical barycentric weights of the nodes
        xs = np.sort(rng.uniform(-2, 2, 4))
        nodes = NodeSet(xs)
        w, scale = fh_weights(nodes, 3), unscale(nodes, 3)
        expected = np.array([barycentric_product(xs, 0, j, 3) for j in range(4)])
        np.testing.assert_allclose(w * scale, expected, rtol=1e-13)

    @pytest.mark.parametrize("n,d", [(6, 0), (6, 3), (9, 5), (12, 12)])
    def test_matches_brute_force_equispaced(self, n, d):
        nodes = NodeSet.equispaced(-1.5, 2.5, n)
        w, scale = fh_weights(nodes, d), unscale(nodes, d)
        np.testing.assert_allclose(w * scale, brute_force_fh(nodes.xs, d),
                                   rtol=1e-12)

    @pytest.mark.parametrize("n,d", [(7, 2), (11, 6)])
    def test_matches_brute_force_general(self, n, d, rng):
        nodes = log_perturbed_nodes(-1.0, 3.0, n, rng)
        w, scale = fh_weights(nodes, d), unscale(nodes, d)
        np.testing.assert_allclose(w * scale, brute_force_fh(nodes.xs, d),
                                   rtol=1e-12)

    def test_equispaced_scale_is_h_power(self):
        # the binomial weights are the raw weights times h**3
        nodes = NodeSet.equispaced(-5, 5, 20)
        scale = brute_force_fh(nodes.xs, 3) / fh_weights(nodes, 3)
        h = 0.5
        assert scale == pytest.approx(h ** -3, rel=1e-15)

    def test_sign_alternation(self):
        nodes = NodeSet.equispaced(0, 1, 10)
        w = fh_weights(nodes, 4)
        signs = np.sign(w)
        assert np.all(signs[1:] == -signs[:-1])

    def test_degree_out_of_range(self):
        nodes = NodeSet.equispaced(0, 1, 4)
        with pytest.raises(ValueError, match="0 <= d <= n"):
            fh_weights(nodes, 5)
        with pytest.raises(ValueError, match="0 <= d <= n"):
            fh_weights(nodes, -1)

    def test_non_integral_degree_refused(self, rng):
        # int() alone would return the d = 2 weights for 2.7
        nodes = perturbed_nodes(-1.0, 1.0, 8, rng)
        with pytest.raises(ValueError, match="integers"):
            fh_weights(nodes, 2.7)
        assert np.array_equal(fh_weights(nodes, 3.0), fh_weights(nodes, 3))

    @pytest.mark.parametrize("kind", ["jittered", "log-perturbed"])
    @pytest.mark.parametrize("n,d", list(bit_cases()))
    def test_bits_match_window_loop(self, kind, n, d, rng):
        if kind == "jittered":
            nodes = perturbed_nodes(-1.0, 3.0, n, rng)
        else:
            nodes = log_perturbed_nodes(-1.0, 3.0, n, rng)
        want = window_loop_fh(nodes, d)
        assert np.array_equal(fh_weights(nodes, d).view(np.int64),
                              want.view(np.int64))

    @pytest.mark.parametrize("n,d", list(bit_cases()))
    def test_equispaced_bits_match_window_loop(self, n, d):
        nodes = NodeSet.equispaced(-1.0, 3.0, n)
        w = fh_weights(nodes, d)
        assert np.array_equal(w.view(np.int64),
                              window_loop_fh(nodes, d).view(np.int64))
        # every interior weight sums all d + 1 windows: +-2**d / d! exactly
        inner = np.arange(d, n - d + 1)
        sign = np.where((inner - d) % 2 == 0, 1.0, -1.0)
        assert np.array_equal(w[inner], sign * (2 ** d / factorial(d)))

    def test_large_n_high_d_stays_finite(self):
        # the binomial form has to stay in range well past n*d ~ 1e3
        nodes = NodeSet.equispaced(-1, 1, 10_000)
        w = fh_weights(nodes, 20)
        assert np.all(np.isfinite(w))
        assert np.max(np.abs(w)) < 1e18
        assert np.min(np.abs(w)) > 0.0


class TestExtParams:
    def test_e_above_d_rejected(self):
        with pytest.raises(ValueError, match="0 <= e <= d"):
            ExtParams(3, 4)

    def test_d_above_n_rejected(self):
        with pytest.raises(ValueError, match="0 <= d <= n"):
            ExtParams(9, 0).validate(NodeSet.equispaced(0, 1, 4))

    def test_degenerate_d0_e0_allowed(self):
        ExtParams(0, 0).validate(NodeSet.equispaced(0, 1, 4))

    @pytest.mark.parametrize("d,e", [(2.7, 1), (3, 1.2), (float("inf"), 0),
                                     (float("nan"), 0), ("3", 1)])
    def test_non_integral_refused(self, d, e):
        # int() alone would truncate 2.7 to 2 and raise OverflowError for inf
        with pytest.raises(ValueError, match="integers"):
            ExtParams(d, e)

    def test_equal_params_hash_equal(self):
        assert ExtParams(3, 1) == ExtParams(3.0, 1)
        assert hash(ExtParams(3, 1)) == hash(ExtParams(3.0, 1))
        assert len({ExtParams(3, 1), ExtParams(3, 1), ExtParams(3, 0)}) == 2
        with pytest.raises(AttributeError):
            ExtParams(3, 1).d = 4

    def test_every_construction_route_checks(self):
        # _replace builds through _make, which a plain NamedTuple fills
        # without the checks of __new__
        with pytest.raises(ValueError, match="0 <= e <= d"):
            ExtParams(2, 1)._replace(e=5)
        with pytest.raises(ValueError, match="0 <= e <= d"):
            ExtParams._make([2, 9])
        with pytest.raises(ValueError, match="integers"):
            ExtParams(2, 1)._replace(d=2.5)
        assert ExtParams(2, 1)._replace(e=2.0) == ExtParams(2, 2)
        assert type(ExtParams._make([3.0, 1]).d) is int

    def test_a_tuple_of_its_fields(self):
        p = ExtParams(3.0, 1)
        d, e = p
        assert (d, e) == p == (3, 1) and p[0] is d and type(d) is int
        back = pickle.loads(pickle.dumps(p))
        assert back == p and type(back) is ExtParams
        with pytest.raises(AttributeError):     # no __dict__ to take it
            p.f = 4


class TestEndWeightTables:
    def test_empty_when_e_zero(self):
        nodes = NodeSet.equispaced(-1, 1, 8)
        lower, upper = end_weight_tables(nodes, ExtParams(3, 0))
        assert lower == [] and upper == []

    def test_single_row_example(self):
        # d=2, e=1: a single lower row for i=1 holding the two-node
        # products 1/(x0-x1) and 1/(x1-x0)
        xs = np.array([0.0, 0.4, 1.1, 1.9, 3.0])
        nodes = NodeSet(xs)
        params = ExtParams(2, 1)
        lower, upper = end_weight_tables(nodes, params)
        assert len(lower) == 1 and len(upper) == 1
        raw = lower[0] * unscale(nodes, 2)
        np.testing.assert_allclose(
            raw, [1.0 / (xs[0] - xs[1]), 1.0 / (xs[1] - xs[0])], rtol=1e-13)

    def test_rows_match_raw_products(self, rng):
        # the lead rows: interpolants i = d - 1 and i = n - d + 1
        nodes = log_perturbed_nodes(-2.0, 2.0, 10, rng)
        xs = nodes.xs
        n, d, e = 10, 5, 3
        lower, upper = end_weight_tables(nodes, ExtParams(d, e))
        assert len(lower) == 1 and len(upper) == 1
        scale = unscale(nodes, d)
        expected = [barycentric_product(xs, 0, j, d - 1) for j in range(d)]
        np.testing.assert_allclose(lower[0] * scale, expected, rtol=1e-12)
        i = n - d + 1
        expected = [barycentric_product(xs, i, j, n) for j in range(i, n + 1)]
        np.testing.assert_allclose(upper[0] * scale, expected, rtol=1e-12)

    def test_mirror_symmetry_on_symmetric_nodes(self):
        # reflecting a symmetric node set maps the upper lead products
        # (i = n - d + 1) onto the lower lead ones (i = d - 1) with sign
        # (-1)**(d - 1)
        xs = np.array([-3.0, -1.2, -0.3, 0.3, 1.2, 3.0])
        nodes = NodeSet(xs)
        d, e = 3, 2
        lower, upper = end_weight_tables(nodes, ExtParams(d, e))
        sign = (-1.0) ** (d - 1)
        np.testing.assert_allclose(upper[0][::-1], sign * lower[0], rtol=1e-12)

    @pytest.mark.parametrize("kind", ["equispaced", "jittered", "log-perturbed"])
    @pytest.mark.parametrize("n,d", [(n, d) for n, d in bit_cases() if d > 0])
    def test_lead_rows_bits_match_full_tables(self, kind, n, d, rng):
        if kind == "equispaced":
            nodes = NodeSet.equispaced(-1.0, 3.0, n)
        elif kind == "jittered":
            nodes = perturbed_nodes(-1.0, 3.0, n, rng)
        else:
            nodes = log_perturbed_nodes(-1.0, 3.0, n, rng)
        for e in sorted({1, d // 2, d} - {0}):
            params = ExtParams(d, e)
            try:
                want_lo, want_up = full_end_weight_tables(nodes, params)
            except OverflowError:
                # j! (d-1-j)! past the double range: refused both ways
                with pytest.raises(OverflowError):
                    end_weight_tables(nodes, params)
                continue
            lower, upper = end_weight_tables(nodes, params)
            assert np.array_equal(lower[0].view(np.int64),
                                  want_lo[-1].view(np.int64))
            assert np.array_equal(upper[0].view(np.int64),
                                  want_up[0].view(np.int64))

    @pytest.mark.parametrize("n,d", [(8, 4), (40, 14), (64, 20)])
    def test_equispaced_lead_rows_equal(self, n, d):
        lower, upper = end_weight_tables(NodeSet.equispaced(-1.0, 3.0, n),
                                         ExtParams(d, 1))
        assert np.array_equal(upper[0].view(np.int64), lower[0].view(np.int64))

    def test_equispaced_matches_general_path(self):
        # same nodes built both ways must give the same raw tables
        xs = np.linspace(-2, 2, 13)
        equi = NodeSet.equispaced(-2, 2, 12)
        gen = NodeSet(xs)
        params = ExtParams(6, 4)
        le, ue = end_weight_tables(equi, params)
        lg, ug = end_weight_tables(gen, params)
        se, sg = unscale(equi, 6), unscale(gen, 6)
        for a, b in zip(le + ue, lg + ug):
            np.testing.assert_allclose(a * se, b * sg, rtol=1e-11)


class TestPrecomputedWeights:
    def test_all_finite_large_case(self):
        nodes = NodeSet.equispaced(-1, 1, 10_000)
        pw = PrecomputedWeights(nodes, ExtParams(20, 10))
        assert np.all(np.isfinite(pw.fh))
        for row in pw.lower + pw.upper:
            assert np.all(np.isfinite(row))

    def test_stored_operands_are_immutable(self):
        # the scalar path reads the float operands and batches the arrays:
        # a write into either would move one path's bits and not the other's
        r = Interpolant.from_function(NodeSet.equispaced(-1.0, 1.0, 20),
                                      np.cos, 6, 2)
        want = r.eval(-0.97).value
        pw = r.weights
        for arr in [pw.fh, *pw.lower, *pw.upper,
                    *(a for end in pw.ends for a in end[1:])]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] *= 2
        for end in pw.end_lists:
            for seq in end[1:]:
                with pytest.raises(TypeError):
                    seq[0] *= 2
        assert r.eval(-0.97).value == want
        assert r([-0.97, 0.31])[0] == want

    def test_wrong_argument_types_refused(self):
        # array nodes and (d, e) tuples failed inside the build with an
        # AttributeError, in all three entry points
        nodes, params = NodeSet.equispaced(-1.0, 1.0, 8), ExtParams(3, 1)
        for args in ((nodes.xs, params), (list(nodes.xs), params),
                     (nodes, (3, 1)), (nodes.xs, (3, 1))):
            for build in (PrecomputedWeights, lebesgue_constant,
                          lambda *a: lebesgue_function(*a, 0.1)):
                with pytest.raises(ValueError, match="NodeSet and an ExtPar"):
                    build(*args)

    @pytest.mark.parametrize("a,n,params", [
        (500.0, 400, ExtParams(300, 0)),    # 2**300 / 300! underflows
    ])
    def test_underflowed_weights_refused(self, a, n, params):
        with pytest.raises(ValueError, match="underflowed"):
            PrecomputedWeights(NodeSet.equispaced(-a, a, n), params)

    def test_non_finite_weights_refused(self):
        # 31 nodes packed into 3e-19 of a unit interval: products of 30
        # factors ~1e-17 underflow, and their inverses are infinite
        nodes = NodeSet(np.append(np.arange(31) * 1e-20, 1.0))
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(fh_weights(nodes, 30)))
        with pytest.raises(ValueError, match="overflowed") as info:
            PrecomputedWeights(nodes, ExtParams(30, 1))
        assert info.value.__context__ is None

    def test_refusals_write_no_warning(self):
        # general nodes, n = 200, d = 170: four window products pass the
        # double range, their terms drop out (1/inf is 0), and node 1's
        # weight would be 0.54% off; 31 nodes in 3e-19: products underflow
        nodes = log_perturbed_nodes(-5.0, 5.0, 200, np.random.default_rng(1))
        packed = NodeSet(np.append(np.arange(31) * 1e-20, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflowed"):
                Interpolant(nodes, 1.0 / (1.0 + nodes.xs ** 2), 170, 4)
            with pytest.raises(ValueError, match="overflowed"):
                PrecomputedWeights(packed, ExtParams(30, 1))

    def test_overflowing_lead_row_refused(self):
        # every j! (299 - j)! >= 149! 150! ~ 2e523 is past the double range
        with pytest.raises(ValueError, match="overflowed") as info:
            PrecomputedWeights(NodeSet.equispaced(-500.0, 500.0, 400),
                               ExtParams(300, 1))
        assert isinstance(info.value.__context__, OverflowError)

    def test_build_memory_stays_per_block(self, rng):
        # a general-node build holds one chunk's factor table and window
        # products, a few budgets of _BLOCK doubles, and no table of all
        # n * (d + 1) factors (3.1 MiB here); it read 1.3 MiB
        nodes = perturbed_nodes(-1.0, 1.0, 10_000, rng)
        tracemalloc.start()
        try:
            PrecomputedWeights(nodes, ExtParams(40, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * _BLOCK

    @pytest.mark.parametrize("a,scale", [
        (2.0 ** -660, 2.0 ** 660),
        (1e-200, 2.0 ** 664),
    ], ids=["2**-660", "1e-200"])
    def test_builds_whose_unread_rows_left_the_range(self, a, scale, rng):
        # the end-table rows below the lead one would hold h**4, which
        # underflows; the lead rows, the only ones formed, hold h
        ys = rng.uniform(-1.0, 1.0, 9)
        r = Interpolant(NodeSet.equispaced(-a, a, 8), ys, 4, 4)
        scaled = Interpolant(NodeSet.equispaced(-a * scale, a * scale, 8),
                             ys, 4, 4)
        x = np.linspace(-a, a, 1001)
        want = scaled(x * scale)
        assert np.all(np.isfinite(want))
        assert np.array_equal(r(x), want)


def budget_outputs(seed):
    """Every weight of the bit cases, and kernel outputs that cross chunk
    and block edges, as one list of arrays (and refusals by type)."""
    rng = np.random.default_rng(seed)
    out = []
    for n, d in bit_cases():
        for nodes in (NodeSet.equispaced(-1.0, 3.0, n),
                      perturbed_nodes(-1.0, 3.0, n, rng),
                      log_perturbed_nodes(-1.0, 3.0, n, rng)):
            out.append(fh_weights(nodes, d))
            for e in sorted({1, d // 2, d} - {0}) if d else ():
                try:
                    out += sum(end_weight_tables(nodes, ExtParams(d, e)), [])
                except OverflowError as exc:
                    out.append(type(exc).__name__)
    for n, d, e in ((1000, 14, 4), (64, 12, 12), (20, 14, 4)):
        nodes = log_perturbed_nodes(-1.0, 1.0, n, rng)
        r = Interpolant(nodes, rng.standard_normal(n + 1), d, e)
        rc = Interpolant(nodes, r.ys, d, e, compensated=True)
        for m in (1, 10, 300, 1000):
            x = rng.uniform(-1.0, 1.0, m)
            x[::7] = nodes.xs[rng.integers(0, n + 1, x[::7].size)]
            out += [r(x), rc(x), r.basis(n // 2, x),
                    lebesgue_function(nodes, r.params, x),
                    np.array([r.eval(v).value for v in x[:3]])]
    return out


def test_budget_moves_no_bit(monkeypatch):
    # One budget sizes every chunked loop, and no output bit depends on it:
    # under 2**8 doubles the weights build takes many window chunks, factor
    # passes and end-row slices, pointwise hands the kernel 256 points at a
    # time, a single point at n = 1000 takes four rows, and batches from
    # 16 points on are swept, all of which 2**15 reaches only at sizes too
    # large for tier-1.
    want = budget_outputs(7)
    small = 2 ** 8
    with monkeypatch.context() as mp:
        mp.setattr(weights, "_BLOCK", small)
        mp.setattr(interpolant, "_BLOCK", small)
        mp.setattr(interpolant, "_SWEEP_MIN", small // 16)
        got = budget_outputs(7)
    assert interpolant._BLOCK == weights._BLOCK == 2 ** 15
    assert interpolant._SWEEP_MIN == 2 ** 15 // 16
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, str):
            assert a == b
        else:
            assert np.array_equal(np.asarray(a).view(np.int64),
                                  np.asarray(b).view(np.int64))
