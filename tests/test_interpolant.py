import functools
import operator
import tracemalloc

import numpy as np
import pytest

from baryblend import (ChebyshevBaseline, CubicSplineBaseline, ExtParams,
                       Interpolant, NodeSet, NoiseSpec, PrecomputedWeights,
                       add_noise, get_function, lebesgue_function)
from baryblend import interpolant
from baryblend.interpolant import (_BLOCK, _SWEEP_MIN, _point_coefs,
                                   term_rows, term_sums, zeta_eta)
from baryblend.oracle import _coefs, blend_form_value, dense_values, fh_value

from .conftest import (barycentric_product, log_perturbed_nodes,
                       perturbed_nodes)


def raw_zeta_eta(nodes, d, e, x):
    """End-correction sums straight from the definitions, raw products."""
    xs = nodes.xs
    n = nodes.n
    zeta = np.zeros(d)
    eta = np.zeros(d)
    for j in range(d):
        s = 0.0
        for i in range(max(j, d - e), d):
            t = barycentric_product(xs, 0, j, i) / (x - xs[0]) ** (d - i)
            s += -t if (d - i) % 2 else t
        zeta[j] = s
    for j in range(n - d + 1, n + 1):
        s = 0.0
        for i in range(n - d + 1, min(j, n - d + e) + 1):
            t = barycentric_product(xs, i, j, n) / (x - xs[n]) ** (i - n + d)
            s += -t if i % 2 else t
        eta[j - (n - d + 1)] = s
    return zeta, eta


def zeta_eta_direct(weights, nodes, params, x):
    """Same as :func:`zeta_eta` by direct summation of the defining sums:
    O(e) terms per node with explicit powers, an independent check on the
    Horner recurrence. The rows of all ``e`` end interpolants enter; the
    stored lead rows as they are, every other row as its raw products
    times the stored common factor."""
    d, e = params.d, params.e
    n, xs = nodes.n, nodes.xs
    zeta = np.zeros(d)
    eta = np.zeros(d)
    if e == 0:
        return zeta, eta
    if x == nodes.a or x == nodes.b:
        raise ValueError("evaluation at an endpoint: snap to the node instead")
    factor = weights.lower_lead[0] / barycentric_product(xs, 0, 0, d - 1)
    for j in range(d):
        s = 0.0
        for i in range(max(j, d - e), d):
            coef = (weights.lower_lead[j] if i == d - 1
                    else barycentric_product(xs, 0, j, i) * factor)
            term = coef / (x - nodes.a) ** (d - i)
            s += -term if (d - i) % 2 else term
        zeta[j] = s
    for j in range(n - d + 1, n + 1):
        s = 0.0
        for i in range(n - d + 1, min(j, n - d + e) + 1):
            coef = (weights.upper_lead[j - i] if i == n - d + 1
                    else barycentric_product(xs, i, j, n) * factor)
            term = coef / (x - nodes.b) ** (i - n + d)
            s += -term if i % 2 else term
        eta[j - (n - d + 1)] = s
    return zeta, eta


class TestZetaEta:
    @pytest.mark.parametrize("x", [-0.93, -0.41, 0.07, 0.88, 2.5, -4.0])
    def test_horner_matches_raw_definition(self, x, rng):
        nodes = log_perturbed_nodes(-1.0, 1.0, 10, rng)
        params = ExtParams(5, 3)
        pw = PrecomputedWeights(nodes, params)
        z, h = (a[:, 0] for a in zeta_eta(pw, np.array([x])))
        zr, hr = raw_zeta_eta(nodes, 5, 3, x)
        # the stored lead rows are the raw products up to one common factor
        scale = barycentric_product(nodes.xs, 0, 0, 4) / pw.lower_lead[0]
        np.testing.assert_allclose(z * scale, zr, rtol=1e-13, atol=1e-305)
        np.testing.assert_allclose(h * scale, hr, rtol=1e-13, atol=1e-305)

    def test_horner_matches_direct_path(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 14))
            d = int(rng.integers(1, n + 1))
            e = int(rng.integers(1, d + 1))
            nodes = perturbed_nodes(-2.0, 2.0, n, rng)
            params = ExtParams(d, e)
            pw = PrecomputedWeights(nodes, params)
            x = float(rng.uniform(-1.9, 1.9))
            if nodes.snap_index(x) is not None:
                continue
            z, h = (a[:, 0] for a in zeta_eta(pw, np.array([x])))
            zd, hd = zeta_eta_direct(pw, nodes, params, x)
            np.testing.assert_allclose(z, zd, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(h, hd, rtol=1e-12, atol=1e-300)

    def test_decay_at_large_x(self):
        # each correction falls off like 1/(x - x0) far from the interval
        nodes = NodeSet.equispaced(-1, 1, 10)
        params = ExtParams(5, 3)
        pw = PrecomputedWeights(nodes, params)
        z3, z6 = zeta_eta(pw, np.array([1e3, 1e6]))[0].T
        ratio = np.abs(z3[np.abs(z3) > 0]) / np.abs(z6[np.abs(z6) > 0])
        np.testing.assert_allclose(ratio, 1e3, rtol=1e-2)

    def test_endpoint_raises(self):
        nodes = NodeSet.equispaced(-1, 1, 8)
        params = ExtParams(4, 2)
        pw = PrecomputedWeights(nodes, params)
        for x in ([-1.0], [1.0], [0.3, 1.0]):
            with pytest.raises(ValueError, match="endpoint"):
                zeta_eta(pw, np.array(x))


def runge(x):
    return 1.0 / (1.0 + np.asarray(x) ** 2)


class TestEval:
    def test_value_at_node_is_sample_exactly(self, rng):
        nodes = log_perturbed_nodes(-3.0, 3.0, 12, rng)
        ys = rng.standard_normal(13)
        r = Interpolant(nodes, ys, 6, 3)
        for j in range(13):
            out = r.eval(float(nodes.xs[j]))
            assert out.at_node == j
            assert out.value == ys[j]

    def test_runge_fh_sup_error_matches_reference(self):
        # n=10, d=0 on [-5,5]: documented sup error ~3.606e-2
        nodes = NodeSet.equispaced(-5, 5, 10)
        r = Interpolant.from_function(nodes, runge, d=0)
        g = np.linspace(-5, 5, 20001)
        err = np.abs(r(g) - runge(g))
        assert err.max() == pytest.approx(3.606e-2, rel=1e-3)

    def test_constant_data_reproduced_everywhere(self, rng):
        nodes = perturbed_nodes(0.0, 4.0, 9, rng)
        r = Interpolant(nodes, np.full(10, 2.5), 3, 0)
        xs = rng.uniform(-1.0, 5.0, 50)
        for x in xs:
            assert r.eval(float(x)).value == pytest.approx(2.5, rel=1e-14)

    @pytest.mark.parametrize("z", [0.1 + 0.5j, 0.1 + 0.0j,
                                   np.complex128(0.1 + 2j),
                                   np.complex64(0.1 + 2j),
                                   np.array([0.1 + 0.5j, 0.2]),
                                   np.array([0.1, 0.2], dtype=complex),
                                   np.array([np.complex128(0.1 + 2j), 0.2],
                                            dtype=object)],
                             ids=["complex", "zero-imag", "complex128",
                                  "complex64", "array", "zero-imag-array",
                                  "object-array"])
    def test_complex_input_refused(self, z):
        # a cast to float would drop the imaginary part, zero or not, and
        # answer at 0.1 with no more than a ComplexWarning
        nodes = NodeSet.equispaced(-1.0, 1.0, 4)
        ys = np.arange(5.0)
        r = Interpolant(nodes, ys, 2, 1)
        spline = CubicSplineBaseline(nodes, ys)
        cheb = ChebyshevBaseline(get_function("runge", (-1.0, 1.0)), 8)
        z0 = np.asarray(z).flat[0]          # its first entry, still complex
        calls = [lambda: NodeSet(np.linspace(0.0, 2.0, 3) + z0),
                 lambda: Interpolant(nodes, ys + z0, 2, 1),
                 lambda: Interpolant(nodes, ys + 0 * z0, 2, 1),
                 lambda: CubicSplineBaseline(nodes, ys + 0 * z0),
                 lambda: r(z), lambda: r.basis(2, z),
                 lambda: lebesgue_function(nodes, r.params, z),
                 lambda: spline(z), lambda: cheb(z),
                 lambda: add_noise(ys + 0 * z0, NoiseSpec(0.1)),
                 lambda: get_function("runge")(z),
                 lambda: blend_form_value(nodes, ys, r.params, z),
                 lambda: fh_value(Interpolant(nodes, ys, 2), z)]
        if np.ndim(z) == 0:
            calls.append(lambda: r.eval(z))
        for call in calls:
            with pytest.raises(ValueError, match="complex"):
                call()

    @pytest.mark.parametrize("x", [None, [0.1], np.array([0.1]), "nan",
                                   10 ** 400, object()],
                             ids=["None", "list", "array", "nan-string",
                                  "huge-int", "object"])
    def test_eval_refuses_what_is_no_real_scalar(self, x):
        r = Interpolant(NodeSet.equispaced(-1.0, 1.0, 4), np.arange(5.0), 2, 1)
        with pytest.raises(ValueError):
            r.eval(x)

    def test_eval_takes_real_scalars_of_any_type(self):
        r = Interpolant(NodeSet.equispaced(-1.0, 1.0, 4), np.arange(5.0), 2, 1)
        want = r.eval(0.1)
        for x in (np.float64(0.1), np.array(0.1), "0.1"):
            assert r.eval(x) == want
        assert r.eval(np.float32(0.1)) == r.eval(float(np.float32(0.1)))
        assert r.eval(1) == r.eval(1.0) == (4.0, 4)
        assert r(0.1) == want.value

    def test_array_nodes_give_the_node_set_bits(self, rng):
        # the constructor and from_function make a NodeSet of array or list
        # nodes, and must then build and evaluate as from that NodeSet
        nodes = log_perturbed_nodes(-1.0, 1.0, 30, rng)
        ys = runge(nodes.xs)
        want = Interpolant(nodes, ys, 6, 2)
        x = rng.uniform(-1.1, 1.1, 50)
        x[::7] = nodes.xs[::4]
        for xs in (nodes.xs.copy(), list(nodes.xs)):
            for r in (Interpolant(xs, ys, 6, 2),
                      Interpolant.from_function(xs, runge, 6, 2)):
                assert isinstance(r.nodes, NodeSet)
                assert np.array_equal(bits(r.ys), bits(want.ys))
                assert np.array_equal(bits(r.weights.fh),
                                      bits(want.weights.fh))
                assert np.array_equal(bits(r(x)), bits(want(x)))

    @pytest.mark.parametrize("ys", [np.ones(4), np.ones(6), np.ones((5, 1)),
                                    [0.0, 1.0, np.nan, 1.0, 0.0],
                                    [0.0, 1.0, 2.0, 3.0, -np.inf]],
                             ids=["short", "long", "2-D", "nan", "inf"])
    def test_bad_samples_refused(self, ys):
        nodes = NodeSet.equispaced(-1.0, 1.0, 4)
        for build in (lambda: Interpolant(nodes, ys, 2, 1),
                      lambda: CubicSplineBaseline(nodes, ys)):
            with pytest.raises(ValueError, match="samples must be"):
                build()

    def test_non_integral_parameters_refused(self):
        # int() alone would truncate (3.9, 1.2) to a (3, 1) interpolant
        nodes = NodeSet.equispaced(0, 1, 6)
        with pytest.raises(ValueError, match="integers"):
            Interpolant(nodes, np.ones(7), 3.9, 1.2)

    def test_fh_path_requires_e_zero(self):
        nodes = NodeSet.equispaced(0, 1, 6)
        r = Interpolant(nodes, np.ones(7), 3, 1)
        with pytest.raises(ValueError, match="e = 0"):
            fh_value(r, 0.5)

    def test_e0_reduction_matches_fh_path(self, rng):
        for nodes in (NodeSet.equispaced(-1, 1, 16),
                      log_perturbed_nodes(-1.0, 1.0, 16, rng)):
            ys = rng.standard_normal(17)
            r = Interpolant(nodes, ys, 5, 0)
            for x in rng.uniform(-1.2, 1.2, 200):
                a = r.eval(float(x)).value
                b = fh_value(r, float(x))
                assert a == pytest.approx(b, rel=1e-14)

    def test_d_equals_n_is_polynomial_interpolation(self, rng):
        # classical Lagrange form as the oracle
        xs = np.sort(rng.uniform(-1, 1, 7))
        ys = rng.standard_normal(7)
        nodes = NodeSet(xs)
        r = Interpolant(nodes, ys, 6, 0)

        def lagrange(x):
            s = 0.0
            for k in range(7):
                p = ys[k]
                for l in range(7):
                    if l != k:
                        p *= (x - xs[l]) / (xs[k] - xs[l])
                s += p
            return s

        for x in rng.uniform(-1, 1, 40):
            if nodes.snap_index(float(x)) is not None:
                continue
            assert r.eval(float(x)).value == pytest.approx(lagrange(x), rel=1e-10)

    def test_scalar_and_vector_paths_bitwise_equal(self, rng):
        nodes = NodeSet.equispaced(-2, 2, 24)
        ys = rng.standard_normal(25)
        r = Interpolant(nodes, ys, 8, 4)
        xs = np.concatenate([rng.uniform(-2.5, 2.5, 300), nodes.xs])
        vec = r(xs)
        for x, v in zip(xs, vec):
            assert r.eval(float(x)).value == v

    def test_compensated_flag_agrees_with_plain(self, rng):
        nodes = NodeSet.equispaced(-1, 1, 20)
        ys = rng.standard_normal(21)
        plain = Interpolant(nodes, ys, 6, 2)
        comp = Interpolant(nodes, ys, 6, 2, compensated=True)
        for x in rng.uniform(-1, 1, 100):
            assert comp.eval(float(x)).value == pytest.approx(
                plain.eval(float(x)).value, rel=1e-13)

    def test_extrapolation_is_permitted(self):
        nodes = NodeSet.equispaced(-1, 1, 8)
        r = Interpolant.from_function(nodes, runge, d=3)
        assert np.isfinite(r(3.7))

    def test_non_finite_input_rejected(self):
        nodes = NodeSet.equispaced(-1, 1, 8)
        r = Interpolant.from_function(nodes, runge, d=3)
        with pytest.raises(ValueError, match="non-finite"):
            r.eval(np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            r(np.array([0.1, np.inf]))

    def test_near_node_continuity(self, rng):
        # values just outside the snap radius stay close to the sample
        nodes = NodeSet.equispaced(-5, 5, 20)
        ys = rng.standard_normal(21)
        r = Interpolant(nodes, ys, 8, 4)
        h = nodes.reference_spacing()
        for j in (0, 1, 10, 19, 20):
            x = float(nodes.xs[j]) + 1e-12 * h
            out = r.eval(x)
            assert out.at_node is None
            assert abs(out.value - ys[j]) < 1e-6 * max(1.0, abs(ys[j]))

    def test_instances_are_read_only(self):
        # assigning e = 0 to the weights made the (6, 2) interpolant read
        # 0.565299531341515 at -0.97, the e = 0 value; every assignment is
        # refused and leaves the values as they were
        nodes = NodeSet.equispaced(-1.0, 1.0, 20)
        r = Interpolant.from_function(nodes, np.cos, 6, 2)
        x = np.linspace(-0.99, 0.99, 41)
        before = bits(r(x))
        for obj, name, value in ((r, "params", ExtParams(6, 3)),
                                 (r, "compensated", True),
                                 (r.weights, "e", 0), (r.nodes, "spacing", 0.2),
                                 (r, "eval", None)):
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert r.eval(-0.97).value == 0.5652993253578369
        assert np.array_equal(bits(r(x)), before)
        assert (r.e, r.weights.e, r.compensated) == (2, 2, False)
        # the Chebyshev baseline's class-level e = 0 still serves the kernel
        cheb = ChebyshevBaseline(get_function("runge"), 20)
        assert cheb.e == 0 and np.all(np.isfinite(cheb(x)))


class TestOperationCount:
    @staticmethod
    def count(n, d, e):
        # arithmetic per point, counted by the dense reference as it runs
        nodes = NodeSet.equispaced(0, 1, n)
        ops = []
        dense_values(nodes, np.ones(n + 1), ExtParams(d, e),
                     np.array([0.237]), tally=ops)
        return ops[0]

    def test_affine_in_n_with_slope_independent_of_e(self):
        for e in (0, 4):
            c32 = self.count(32, 8, e)
            c64 = self.count(64, 8, e)
            c128 = self.count(128, 8, e)
            slope1 = (c64 - c32) / 32
            slope2 = (c128 - c64) / 64
            assert slope1 == slope2      # exactly affine
        slope_e0 = (self.count(128, 8, 0) - self.count(64, 8, 0)) / 64
        slope_e4 = (self.count(128, 8, 4) - self.count(64, 8, 4)) / 64
        assert slope_e0 == slope_e4

    def test_e_overhead_scales_like_d_times_e(self):
        for d, e in [(6, 2), (8, 4), (12, 6), (16, 8), (20, 10)]:
            over = self.count(64, d, e) - self.count(64, d, 0)
            assert d * e <= over <= 12 * d * e


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_same_bits(got, want):
    """Equal bits, except that NaN meets NaN as a mask: which NaN an
    operation returns is not part of its result."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(bits(got[~nan]), bits(want[~nan]))


def traced_peak(f, x):
    """The traced peak of Python allocations, in bytes, during ``f(x)``."""
    tracemalloc.start()
    try:
        f(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kernel_case(n, d, e, rng, compensated=False):
    nodes = log_perturbed_nodes(-1.0, 1.0, n, rng)
    return Interpolant(nodes, rng.standard_normal(n + 1), d, e,
                       compensated=compensated)


BLOCK_CASES = [
    (1, 1, 0), (1, 1, 1),
    (4, 4, 0), (4, 4, 3), (4, 4, 4),      # the end blocks overlap
    (5, 4, 0), (5, 4, 3), (5, 4, 4),
    (30, 10, 0), (30, 10, 3), (30, 10, 10),
    # a batch of m points takes node blocks of 32,768 // m nodes: at m = 33
    # blocks of 992 cut into the upper end of n = 1000, and at m = 767
    # blocks of 42 cut into both ends of d = 50
    (1000, 14, 0), (1000, 14, 3), (1000, 14, 14),
    (200, 50, 6),
]


LARGE_SIZES = (4095, 4096, 4097, 32767, 32768, 32769, 100_001)


def assert_large_batches_match(f, x0, sizes=LARGE_SIZES):
    """``f`` on each prefix ``x[:m]``, ``m`` in ``sizes``, of ``x0``
    repeated, equals ``f`` on ``x0`` in slices of ``_SWEEP_MIN - 1``
    points, and on scalars, bit for bit (repeating ``x0`` keeps the slices
    few)."""
    x = np.resize(x0, LARGE_SIZES[-1])
    k = _SWEEP_MIN - 1
    small = np.resize(np.concatenate(
        [f(x0[i:i + k]) for i in range(0, x0.size, k)]), x.size)
    pick = [0, 4094, 4095, 4096, 32767, 32768, 65536, x.size - 1]
    assert np.array_equal(bits([f(x[p]) for p in pick]), bits(small[pick]))
    for m in sizes:
        assert np.array_equal(bits(f(x[:m])), bits(small[:m]))


class TestKernel:
    """The sparse kernel against the dense reference, bit for bit."""

    @pytest.mark.parametrize("compensated", [False, True])
    @pytest.mark.parametrize("n,d,e", [
        (24, 8, 0), (24, 8, 8), (24, 8, 3),   # e = 0, e = d, in between
        (4, 4, 2), (5, 4, 4), (1, 1, 1), (1, 1, 0),  # end blocks overlap
    ])
    def test_matches_dense_reference(self, n, d, e, compensated, rng):
        r = kernel_case(n, d, e, rng, compensated)
        x = np.concatenate([rng.uniform(-1.3, 1.3, 500), r.nodes.xs])
        want = dense_values(r.nodes, r.ys, r.params, x, compensated)
        assert np.array_equal(bits(r(x)), bits(want))
        assert np.array_equal(bits([r.eval(v).value for v in x]), bits(want))

    @pytest.mark.parametrize("size", [4095, 4096, 4097])
    def test_chunk_boundaries(self, size, rng):
        r = kernel_case(30, 10, 4, rng)
        x = rng.uniform(-1.1, 1.1, size)
        x[::97] = r.nodes.xs[rng.integers(0, 31, x[::97].size)]
        want = dense_values(r.nodes, r.ys, r.params, x)
        assert np.array_equal(bits(r(x)), bits(want))
        assert np.array_equal(bits(r(x.reshape(1, -1))), bits(want[None, :]))

    def test_batch_where_every_point_snaps(self, rng):
        r = kernel_case(12, 6, 3, rng)
        idx = rng.integers(0, 13, 5000)
        assert np.array_equal(bits(r(r.nodes.xs[idx])), bits(r.ys[idx]))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_scalar_eval_equals_vector_with_sign_of_zero(self, zero, rng):
        # zero samples give a value of +-0.0, the sign set by the denominator
        nodes = NodeSet.equispaced(-1.0, 1.0, 16)
        r = Interpolant(nodes, np.full(17, zero), 6, 3)
        x = np.concatenate([rng.uniform(-1.5, 1.5, 300), [-40.0, 40.0]])
        vec = r(x)
        assert np.array_equal(bits([r.eval(v).value for v in x]), bits(vec))
        assert np.array_equal(bits([r(v) for v in x]), bits(vec))
        assert {np.signbit(v) for v in vec} == {False, True}

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_sums_start_from_positive_zero(self, zero):
        # two nodes, x between them: both terms have one sign, so for one of
        # the two zero samples every product is -0.0; the sum must still
        # start from +0.0, and 0.0 + (-0.0) is +0.0
        r = Interpolant(NodeSet.equispaced(0.0, 1.0, 1), [zero, zero], 1)
        x = np.linspace(0.1, 0.9, 9)
        want = dense_values(r.nodes, r.ys, r.params, x)
        assert np.array_equal(bits(r(x)), bits(want))
        assert np.array_equal(bits([r.eval(v).value for v in x]), bits(want))

    def test_scalar_basis_and_lebesgue_equal_vector(self, rng):
        r = kernel_case(20, 7, 3, rng)
        x = rng.uniform(-1.2, 1.2, 50)
        for j in (0, 4, 20):
            assert np.array_equal(bits([r.basis(j, v) for v in x]),
                                  bits(r.basis(j, x)))
        leb = lebesgue_function(r.nodes, r.params, x)
        assert np.array_equal(
            bits([lebesgue_function(r.nodes, r.params, v) for v in x]), bits(leb))

    @pytest.mark.parametrize("n,d,e", BLOCK_CASES)
    def test_block_heights(self, n, d, e, rng):
        # each batch size m takes its own number of nodes per step, and the
        # scalar paths are blocks of m = 1: all must add the same terms in
        # the same order. One dense reference serves every batch size.
        r = kernel_case(n, d, e, rng)
        batches = []
        for m in (1, 2, 3, 31, 32, 33, _SWEEP_MIN - 1, _SWEEP_MIN,
                  4095, 4096, 4097):
            x = rng.uniform(-1.1, 1.1, m)
            batches.append((x, rng.choice(m, min(m, 6), replace=False)))
        xall = np.concatenate([x for x, _ in batches])
        cuts = np.cumsum([0] + [x.size for x, _ in batches])

        def dense(ys):
            return np.concatenate([
                dense_values(r.nodes, ys, r.params, xall[i:i + 4097])
                for i in range(0, xall.size, 4097)])

        unit = np.zeros(n + 1)
        want = {None: dense(r.ys)}
        assert np.isfinite(want[None]).all()
        for j in {0, n, d - 1, n - d + 1}:
            unit[:] = 0.0
            unit[j] = 1.0
            want[j] = dense(unit)
        leb = lambda v: lebesgue_function(r.nodes, r.params, v)
        for (x, pick), a, b in zip(batches, cuts, cuts[1:]):
            vec = r(x)
            assert np.array_equal(bits(vec), bits(want[None][a:b]))
            assert np.array_equal(bits([r.eval(x[p]).value for p in pick]),
                                  bits(vec[pick]))
            for j in {0, n, d - 1, n - d + 1}:
                vec = r.basis(j, x)
                assert np.array_equal(bits(vec), bits(want[j][a:b]))
                assert np.array_equal(bits([r.basis(j, x[p]) for p in pick]),
                                      bits(vec[pick]))
            assert np.array_equal(bits([leb(x[p]) for p in pick]),
                                  bits(leb(x)[pick]))

    @pytest.mark.parametrize("n,d,e", [
        (20, 14, 4), (26, 14, 4),           # the end blocks overlap
        (27, 14, 4),                        # they touch: no interior
        (28, 14, 4), (1000, 14, 4), (64, 12, 12),
        (4, 4, 4),                          # every node in both end blocks
        (30, 10, 1),                        # end nodes with no Horner step
        (30, 10, 10),                       # e = d
    ])
    def test_large_batches_match_small_slices(self, n, d, e, rng):
        # a batch of _SWEEP_MIN points or more sweeps chunks of up to 32,768
        # points, interior nodes in blocks of 32,768 // m (one a step from
        # 8,193 points on), each end node's row formed just before its
        # step; slices under _SWEEP_MIN points take node blocks with
        # zeta_eta's end rows, and scalars 1-D rows: every batch size must
        # give the same bits
        r = kernel_case(n, d, e, rng)
        rc = Interpolant(r.nodes, r.ys, d, e, compensated=True)
        x = rng.uniform(-1.1, 1.1, 33_000)
        x[::89] = r.nodes.xs[rng.integers(0, n + 1, x[::89].size)]
        for f in (r, lambda v: r.basis(n - d + 1, v),
                  lambda v: lebesgue_function(r.nodes, r.params, v)):
            assert_large_batches_match(f, x)
        # the compensated sweep is the slowest path: at n = 1000 it stops
        # at 32,769 points, and the smaller n cover 100,001
        assert_large_batches_match(rc, x, LARGE_SIZES[:None if n < 1000 else -1])

    @pytest.mark.parametrize("n", [20, 1000])
    def test_chebyshev_large_batches_match_small_slices(self, n, rng):
        cheb = ChebyshevBaseline(get_function("runge"), n)
        x = rng.uniform(-5.5, 5.5, 33_000)
        x[::89] = cheb.nodes.xs[rng.integers(0, n + 1, x[::89].size)]
        assert_large_batches_match(cheb, x)

    def test_large_batch_memory_stays_per_block(self, rng):
        # a 32,768-point chunk holds one row per running sum and a few per
        # end node, never (d, m) end rows, which would peak near 12 MiB
        r = kernel_case(1000, 14, 4, rng)
        x = rng.uniform(-1.0, 1.0, 32768)
        assert traced_peak(r, x) < 4 * 2 ** 20
        # at n = 10,000 the interior weights as a list take 0.3 MiB; they
        # are formed only once the lower end's rows are freed (3.18 MiB
        # when both were held at once)
        r = Interpolant.from_function(NodeSet.equispaced(-5.0, 5.0, 10_000),
                                      runge, d=8, e=4)
        x = rng.uniform(-5.0, 5.0, 32768)
        x[::100] = r.nodes.xs[rng.integers(0, 10_001, x[::100].size)]
        assert traced_peak(r, x) < 3.0 * 2 ** 20

    def test_single_point_spans_blocks(self, rng):
        # past 32,768 nodes a single point takes more than one block
        r = Interpolant.from_function(NodeSet.equispaced(-5.0, 5.0, 40_000),
                                      runge, d=8, e=4)
        x = rng.uniform(-5.0, 5.0, 5)
        want = dense_values(r.nodes, r.ys, r.params, x)
        assert np.array_equal(bits([r.eval(v).value for v in x]), bits(want))
        assert np.array_equal(bits(r(x)), bits(want))

    @pytest.mark.parametrize("n,d,e", BLOCK_CASES)
    def test_one_point_end_coefs_match_batch(self, n, d, e, rng, monkeypatch):
        # one point's zeta_eta rows must be the bits of its column in a
        # 2-point batch; with e = 0 there are no corrections, and node
        # blocks never form them
        r = kernel_case(n, d, e, rng)
        x = rng.uniform(-1.1, 1.1, 300)
        x = x[r.nodes.snap_indices(x) < 0][:100]
        if e == 0:
            def refuse(*args):
                raise AssertionError("e = 0 formed end corrections")

            monkeypatch.setattr(interpolant, "zeta_eta", refuse)
            term_sums(r.weights, x[:2], r.ys)
            return
        for v in x:
            one = zeta_eta(r.weights, np.array([v]))
            two = zeta_eta(r.weights, np.array([v, 0.1]))
            for a, b in zip(one, two):
                assert a.shape == (d, 1)
                assert np.array_equal(bits(a[:, 0]), bits(b[:, 0]))

    @pytest.mark.parametrize("d,e", [(24, 24), (30, 22)])
    def test_one_point_end_coefs_match_batch_where_they_overflow(self, d, e):
        # one ulp outside the snap radius of an end node the Horner
        # products overflow: one point and a batch must reach the same inf,
        # and NaN where the other does
        nodes = NodeSet.equispaced(-1.0, 1.0, 40)
        r = Interpolant.from_function(nodes, np.cos, d, e)
        edges = [np.nextafter(nodes.a + nodes.snap_radii[0], 2.0),
                 np.nextafter(nodes.b - nodes.snap_radii[40], -2.0)]
        for v in edges:
            with np.errstate(all="ignore"):
                one = zeta_eta(r.weights, np.array([v]))
                two = zeta_eta(r.weights, np.array([v, 0.5]))
            assert not all(np.isfinite(a).all() for a in one)
            for a, b in zip(one, two):
                assert_same_bits(a[:, 0], b[:, 0])

    @pytest.mark.parametrize("n,d,e", [c for c in BLOCK_CASES if c[2]])
    def test_point_coefs_match_batch(self, n, d, e, rng):
        # a single point's float chains must give the bits of the oracle's
        # coefficient rows, also one ulp outside the snap radius of an end
        # node; a node in both ends is right in the upper list only
        r = kernel_case(n, d, e, rng)
        nodes, k = r.nodes, min(d, n + 1 - d)
        x = rng.uniform(-1.1, 1.1, 300)
        x = np.append(x[nodes.snap_indices(x) < 0][:100],
                      [np.nextafter(nodes.a + nodes.snap_radii[0], 2.0),
                       np.nextafter(nodes.b - nodes.snap_radii[n], -2.0)])
        with np.errstate(all="ignore"):
            C, _, off, _, _ = _coefs(nodes, r.params, r.weights, x)
        assert off.all()
        for v, want in zip(x, C.T):
            with np.errstate(all="ignore"):
                lower, upper = _point_coefs(r.weights, float(v))
            assert_same_bits(np.array(lower[:k]), want[:k])
            assert_same_bits(np.array(upper), want[n + 1 - d:])

    @pytest.mark.parametrize("n,d,e", BLOCK_CASES)
    def test_terms_match_dense_rows(self, n, d, e, rng):
        # the dense reference pins the kernel term by term, not only through
        # reduced values: a basis call's t_j is column j of term_rows, for a
        # single point, in node blocks (32 points) and in the sweep, also
        # one ulp outside the snap radius of each end node, where an end
        # term may overflow; NaN must meet NaN as a mask, not as equal bits
        r = kernel_case(n, d, e, rng)
        nodes = r.nodes
        edges = [np.nextafter(nodes.a + nodes.snap_radii[0], 2.0),
                 np.nextafter(nodes.b - nodes.snap_radii[n], -2.0)]
        x = rng.uniform(-1.1, 1.1, _SWEEP_MIN + 100)
        x = np.concatenate([edges, x[nodes.snap_indices(x) < 0]])
        js = range(n + 1) if n <= 64 else sorted(
            {*range(d), *range(n + 1 - d, n + 1), n // 3, n // 2, 2 * n // 3})
        finite = 0
        for pts in (x[:1], x[1:2], x[2:3], x[:32], x[:_SWEEP_MIN]):
            with np.errstate(all="ignore"):
                T, off, _ = term_rows(nodes, r.params, r.weights, pts)
                assert off.all()
                for j in js:
                    got = np.atleast_1d(term_sums(r.weights, pts, col=j)[0])
                    want = T[:, j]
                    nan = np.isnan(want)
                    assert np.array_equal(np.isfinite(got), np.isfinite(want))
                    assert np.array_equal(np.isnan(got), nan)
                    assert np.array_equal(bits(got[~nan]), bits(want[~nan]))
                    finite += np.isfinite(want).sum()
        assert finite > 0

    @pytest.mark.parametrize("n,d,e", [(64, 12, 4), (1000, 14, 4), (4, 4, 4),
                                       (30, 10, 10),
                                       (40_000, 8, 4)])     # two row steps
    def test_single_points_stay_off_the_batch_paths(self, n, d, e, rng,
                                                    monkeypatch):
        # a scalar call, compensated or not, forms its end coefficients on
        # floats and its sums in 1-D rows: it never reaches the node blocks
        # or their zeta_eta, nor the sweep or its _end_rows (a compensated
        # point in the sweep took 20-40x longer)
        r = kernel_case(n, d, e, rng)
        rc = Interpolant(r.nodes, r.ys, d, e, compensated=True)
        x = rng.uniform(-1.0, 1.0, 40 if n < _BLOCK else 8)
        x = x[r.nodes.snap_indices(x) < 0]
        want = [r(x), rc(x), r.basis(0, x), r.basis(n, x),
                lebesgue_function(r.nodes, r.params, x)]

        def refuse(*args):
            raise AssertionError("a single point took a batch path")

        for name in ("zeta_eta", "_end_rows", "_blocks", "_sweep"):
            monkeypatch.setattr(interpolant, name, refuse)
        got = [[r.eval(v).value for v in x], [rc.eval(v).value for v in x],
               [r.basis(0, v) for v in x], [r.basis(n, v) for v in x],
               [lebesgue_function(r.nodes, r.params, v) for v in x]]
        for a, b in zip(got, want):
            assert np.array_equal(bits(a), bits(b))
        for f in (r, rc):
            with pytest.raises(AssertionError, match="batch path"):
                f(x[:2])

    def test_single_point_at_a_zero_denominator(self):
        # at x = 1e6 the denominator of this interpolant adds up to 0.0 and
        # r(x) is -inf; a single point's sums are numpy scalars, so their
        # quotient follows numpy, as a batch's does, and raises no
        # ZeroDivisionError, compensated or not
        nodes = NodeSet.equispaced(-5.0, 5.0, 3)
        x = 1e6
        for compensated in (False, True):
            r = Interpolant.from_function(nodes, runge, 2, 2,
                                          compensated=compensated)
            with np.errstate(divide="ignore"):
                vals = [r.eval(x).value, r(x), *r(np.array([x, x]))]
                assert term_sums(r.weights, np.array([x]), r.ys)[1] == 0.0
            assert vals[0] == -np.inf
            assert np.array_equal(bits(vals), bits([vals[0]] * 4))

    def test_term_rows_refuses_mismatched_weights(self):
        # weights built for (6, 2) and passed with params (6, 3) gave the
        # (6, 2) rows: for 1/(1 + 25x^2), 0.0407701 at x = -0.97, where the
        # (6, 3) interpolant gives 0.0408148
        nodes = NodeSet.equispaced(-1.0, 1.0, 19)
        weights = PrecomputedWeights(nodes, ExtParams(6, 2))
        x = np.array([-0.97])
        for other, params in ((nodes, ExtParams(6, 3)),
                              (NodeSet.equispaced(-1.0, 2.0, 19), ExtParams(6, 2))):
            with pytest.raises(ValueError, match="other nodes or parameters"):
                term_rows(other, params, weights, x)
        T, _, _ = term_rows(NodeSet(nodes.xs.copy()), ExtParams(6, 2), weights, x)
        r = Interpolant.from_function(nodes, runge, 6, 2)
        assert (T @ r.ys / T.sum(axis=1))[0] == pytest.approx(r(-0.97), rel=1e-14)

    def test_sweep_refuses_an_endpoint(self, rng):
        # a batch of _SWEEP_MIN points or more forms its end rows node by
        # node, not through zeta_eta, and must refuse an endpoint as it does
        r = kernel_case(30, 10, 4, rng)
        for v in (r.nodes.a, r.nodes.b):
            for m, compensated in ((_SWEEP_MIN, False), (5000, False),
                                   (8, True)):
                x = rng.uniform(-0.9, 0.9, m)
                x[m // 2] = v
                with pytest.raises(ValueError, match="evaluation at an endpoint"):
                    term_sums(r.weights, x, r.ys, compensated=compensated)

    def test_empty_batch(self, rng):
        r = kernel_case(30, 10, 4, rng)
        x = np.empty(0)
        for sums in (term_sums(r.weights, x, r.ys),
                     term_sums(r.weights, x, r.ys, compensated=True)):
            assert [a.shape for a in sums] == [(0,), (0,)]

    def test_axis0_reduce_adds_rows_in_order(self):
        # the block kernel relies on this: numpy adds the rows of a
        # C-contiguous block one after the other, column by column, so the
        # small terms round away one at a time; a pairwise sum would give
        # 1 + 1e-13
        block = np.full((1001, 2), 1e-16)
        block[0] = 1.0
        assert np.array_equal(np.add.reduce(block, axis=0), [1.0, 1.0])

    def test_row_accumulate_adds_left_to_right(self, rng):
        # _point_sums relies on this: np.add.accumulate along each row of a
        # (2, k) block adds the entries one after the other, a left fold (a
        # pairwise sum would give 1 + 1e-13 on the first block)
        rows = np.full((2, 1001), 1e-16)
        rows[:, 0] = 1.0
        assert np.add.accumulate(rows, axis=1)[:, -1].tolist() == [1.0, 1.0]
        rows = rng.standard_normal((2, 1000))
        rows *= 10.0 ** rng.integers(-8, 9, rows.shape)
        want = [functools.reduce(operator.add, row) for row in rows.tolist()]
        assert np.add.accumulate(rows, axis=1)[:, -1].tolist() == want

    def test_last_axis_product_accumulate_is_a_left_fold(self, rng):
        # end_weight_tables relies on this: np.multiply.accumulate along the
        # last axis of a (2, s, d) block multiplies each row from the left;
        # (1e300 * 1e10) * 1e-300 overflows, which any other order avoids
        f = np.array([[[1e300, 1e10, 1e-300]]])
        with np.errstate(over="ignore"):
            assert np.multiply.accumulate(f, axis=2)[0, 0, -1] == np.inf
        f = rng.uniform(0.5, 2.0, (2, 7, 40))
        f[rng.random(f.shape) < 0.5] *= -1.0
        want = [[functools.reduce(operator.mul, row) for row in side]
                for side in f.tolist()]
        assert np.multiply.accumulate(f, axis=2)[:, :, -1].tolist() == want

    def test_chunk_memory_stays_small_at_large_n(self, rng):
        # a dense chunk x (n+1) coefficient block would take 313 MiB
        r = Interpolant.from_function(NodeSet.equispaced(-5.0, 5.0, 10_000),
                                      runge, d=8, e=4)
        x = rng.uniform(-5.0, 5.0, 4096)
        assert traced_peak(r, x) < 8 * 2 ** 20

    def test_sweep_block_memory(self, rng):
        # a 4,096-point chunk at n = 10,000 holds one (8, 2, 4096) block of
        # _BLOCK pairs of terms and its running sums, no list of the
        # nodes (the one-node-a-step sweep peaked at 1.17 MiB here)
        r = Interpolant.from_function(NodeSet.equispaced(-5.0, 5.0, 10_000),
                                      runge, d=8, e=4)
        x = rng.uniform(-5.0, 5.0, 4096)
        x[::100] = r.nodes.xs[rng.integers(0, 10_001, x[::100].size)]
        assert traced_peak(r, x) < 2 * 16 * _BLOCK

    @pytest.mark.parametrize("n,d,e,sizes", [
        # 1,023-1,025 points take 32 or 31 interior nodes a step; 4,096
        # points take 8 over the 973 interior nodes, 121 blocks and one of 5
        (1000, 14, 4, (1023, 1024, 1025, 4096)),
        (1000, 14, 0, (1024, 4096)),        # e = 0: every node interior
        # 8,192 points take 4 of the 201 nodes a step, the last one alone;
        # from 8,193 points every node takes a step of its own
        (200, 5, 0, (8192, 8193)),
        (20, 14, 4, (1024, 4096)),          # the end blocks overlap
    ])
    def test_sweep_block_edges(self, n, d, e, sizes, rng):
        # the sweep against the node blocks under _SWEEP_MIN points and
        # against scalars: values, compensated values, the basis functions
        # of an end node and an interior one, and the Lebesgue function
        r = kernel_case(n, d, e, rng)
        rc = Interpolant(r.nodes, r.ys, d, e, compensated=True)
        x = rng.uniform(-1.1, 1.1, max(sizes))
        x[::97] = r.nodes.xs[rng.integers(0, n + 1, x[::97].size)]
        for f in (r, rc, lambda v: r.basis(d - 1, v),
                  lambda v: r.basis(n // 2, v),
                  lambda v: lebesgue_function(r.nodes, r.params, v)):
            assert_large_batches_match(f, x, sizes)
        want = dense_values(r.nodes, r.ys, r.params, x[:sizes[0]], True)
        assert np.array_equal(bits(rc(x[:sizes[0]])), bits(want))


class TestBasis:
    def test_kronecker_property(self):
        nodes = NodeSet.equispaced(-1, 1, 10)
        r = Interpolant.from_function(nodes, runge, d=4, e=2)
        for j in (0, 3, 10):
            vals = r.basis(j, nodes.xs)
            expected = np.zeros(11)
            expected[j] = 1.0
            np.testing.assert_array_equal(vals, expected)

    def test_partition_of_unity(self):
        nodes = NodeSet.equispaced(-1, 1, 16)
        r = Interpolant.from_function(nodes, runge, d=8, e=4)
        total = sum(r.basis(j, 0.37) for j in range(17))
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_index_out_of_range(self):
        nodes = NodeSet.equispaced(-1, 1, 8)
        r = Interpolant.from_function(nodes, runge, d=3)
        with pytest.raises(IndexError):
            r.basis(9, 0.0)

    def test_non_integral_index_refused(self):
        # int() alone would truncate 1.5 to basis 1
        nodes = NodeSet.equispaced(-1, 1, 8)
        r = Interpolant.from_function(nodes, runge, d=3)
        for j in (1.5, float("inf"), float("nan")):
            with pytest.raises(IndexError):
                r.basis(j, 0.3)
        assert r.basis(1.0, 0.3) == r.basis(1, 0.3)

    def test_end_corrections_damp_end_oscillations(self):
        # max |basis| over a window at the left end: the corrected (8,4)
        # blend oscillates less there than the plain d=4 one
        nodes = NodeSet.equispaced(-1, 1, 16)
        window = np.linspace(-1.0, -0.75, 400)
        peak = {}
        for d, e in ((8, 4), (4, 0)):
            r = Interpolant.from_function(nodes, runge, d=d, e=e)
            peak[(d, e)] = max(np.abs(r.basis(j, window)).max()
                               for j in range(17))
        assert peak[(8, 4)] < peak[(4, 0)]
