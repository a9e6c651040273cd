import tracemalloc

import numpy as np
import pytest

from baryblend import (ExtParams, Interpolant, NodeSet, PrecomputedWeights,
                       dump_interpolant, lebesgue_function,
                       load_interpolant)
from baryblend.interpolant import _SWEEP_MIN, end_coefs, term_sums, zeta_eta
from baryblend.oracle import dense_values, fh_value

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
    def test_zero_when_e_zero(self):
        nodes = NodeSet.equispaced(-1, 1, 8)
        params = ExtParams(4, 0)
        pw = PrecomputedWeights(nodes, params)
        z, h = zeta_eta(pw, nodes, params, 0.33)
        assert not z.any() and not h.any()

    @pytest.mark.parametrize("x", [-0.93, -0.41, 0.07, 0.88, 2.5, -4.0])
    def test_horner_matches_raw_definition(self, x, rng):
        nodes = log_perturbed_nodes(-1.0, 1.0, 10, rng)
        params = ExtParams(5, 3)
        pw = PrecomputedWeights(nodes, params)
        z, h = zeta_eta(pw, nodes, params, x)
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
            z, h = zeta_eta(pw, nodes, params, x)
            zd, hd = zeta_eta_direct(pw, nodes, params, x)
            np.testing.assert_allclose(z, zd, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(h, hd, rtol=1e-12, atol=1e-300)

    def test_decay_at_large_x(self):
        # each correction falls off like 1/(x - x0) far from the interval
        nodes = NodeSet.equispaced(-1, 1, 10)
        params = ExtParams(5, 3)
        pw = PrecomputedWeights(nodes, params)
        z3, _ = zeta_eta(pw, nodes, params, 1e3)
        z6, _ = zeta_eta(pw, nodes, params, 1e6)
        ratio = np.abs(z3[np.abs(z3) > 0]) / np.abs(z6[np.abs(z6) > 0])
        np.testing.assert_allclose(ratio, 1e3, rtol=1e-2)

    def test_endpoint_raises(self):
        nodes = NodeSet.equispaced(-1, 1, 8)
        params = ExtParams(4, 2)
        pw = PrecomputedWeights(nodes, params)
        with pytest.raises(ValueError, match="endpoint"):
            zeta_eta(pw, nodes, params, -1.0)


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


def kernel_case(n, d, e, rng, compensated=False):
    nodes = log_perturbed_nodes(-1.0, 1.0, n, rng)
    return Interpolant(nodes, rng.standard_normal(n + 1), d, e,
                       compensated=compensated)


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

    @pytest.mark.parametrize("n,d,e", [
        (1, 1, 0), (1, 1, 1),
        (4, 4, 0), (4, 4, 3), (4, 4, 4),      # the end blocks overlap
        (5, 4, 0), (5, 4, 3), (5, 4, 4),
        (30, 10, 0), (30, 10, 3), (30, 10, 10),
        (1000, 14, 0), (1000, 14, 3), (1000, 14, 14),
    ])
    def test_block_heights(self, n, d, e, rng):
        # each batch size m takes its own number of nodes per step, and the
        # scalar paths are blocks of m = 1: all must add the same terms in
        # the same order
        r = kernel_case(n, d, e, rng)
        unit = np.zeros(n + 1)
        for m in (1, 2, 3, 31, 32, 33, _SWEEP_MIN - 1, _SWEEP_MIN,
                  4095, 4096, 4097):
            x = rng.uniform(-1.1, 1.1, m)
            pick = rng.choice(m, min(m, 6), replace=False)
            vec = r(x)
            assert np.array_equal(bits(vec),
                                  bits(dense_values(r.nodes, r.ys, r.params, x)))
            assert np.array_equal(bits([r.eval(x[p]).value for p in pick]),
                                  bits(vec[pick]))
            for j in {0, n, d - 1, n - d + 1}:
                unit[:] = 0.0
                unit[j] = 1.0
                vec = r.basis(j, x)
                assert np.array_equal(
                    bits(vec), bits(dense_values(r.nodes, unit, r.params, x)))
                assert np.array_equal(bits([r.basis(j, x[p]) for p in pick]),
                                      bits(vec[pick]))
            leb = lambda v: lebesgue_function(r.nodes, r.params, v, r.weights)
            assert np.array_equal(bits([leb(x[p]) for p in pick]),
                                  bits(leb(x)[pick]))

    def test_single_point_spans_blocks(self, rng):
        # past 8192 nodes a single point takes more than one block
        r = Interpolant.from_function(NodeSet.equispaced(-5.0, 5.0, 10_000),
                                      runge, d=8, e=4)
        x = rng.uniform(-5.0, 5.0, 5)
        want = dense_values(r.nodes, r.ys, r.params, x)
        assert np.array_equal(bits([r.eval(v).value for v in x]), bits(want))
        assert np.array_equal(bits(r(x)), bits(want))

    def test_empty_batch(self, rng):
        r = kernel_case(30, 10, 4, rng)
        x = np.empty(0)
        ends = end_coefs(r.weights, r.nodes, r.params, x)
        for sums in (term_sums(r.nodes.xs, r.weights.fh, x, r.ys, ends),
                     term_sums(r.nodes.xs, r.weights.fh, x, r.ys, ends,
                               compensated=True)):
            assert [a.shape for a in sums] == [(0,), (0,)]

    def test_axis0_reduce_adds_rows_in_order(self):
        # the block kernel relies on this: numpy adds the rows of a
        # C-contiguous block one after the other, column by column, so the
        # small terms round away one at a time; a pairwise sum would give
        # 1 + 1e-13
        block = np.full((1001, 2), 1e-16)
        block[0] = 1.0
        assert np.array_equal(np.add.reduce(block, axis=0), [1.0, 1.0])

    def test_chunk_memory_stays_small_at_large_n(self, rng):
        # a dense chunk x (n+1) coefficient block would take 313 MiB
        r = Interpolant.from_function(NodeSet.equispaced(-5.0, 5.0, 10_000),
                                      runge, d=8, e=4)
        x = rng.uniform(-5.0, 5.0, 4096)
        tracemalloc.start()
        try:
            r(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestSerialization:
    def test_round_trip_is_exact(self, rng):
        nodes = log_perturbed_nodes(-2.0, 5.0, 11, rng)
        ys = rng.standard_normal(12)
        r = Interpolant(nodes, ys, 7, 3)
        r2 = load_interpolant(dump_interpolant(r))
        assert np.array_equal(r2.nodes.xs, nodes.xs)
        assert np.array_equal(r2.ys, ys)
        assert (r2.d, r2.e) == (7, 3)
        x = 0.371
        assert r2.eval(x).value == pytest.approx(r.eval(x).value, rel=1e-15)

    @pytest.mark.parametrize("compensated", [False, True])
    def test_round_trip_keeps_spacing_and_compensation(self, compensated, rng):
        for nodes in (NodeSet.equispaced(-5.0, 5.0, 64),
                      log_perturbed_nodes(-5.0, 5.0, 64, rng)):
            r = Interpolant.from_function(nodes, runge, 12, 4,
                                          compensated=compensated)
            r2 = load_interpolant(dump_interpolant(r))
            assert r2.nodes.is_equispaced == nodes.is_equispaced
            assert r2.nodes.spacing == nodes.spacing
            assert r2.compensated == compensated
            x = rng.uniform(-5.0, 5.0, 2000)
            assert np.array_equal(bits(r2(x)), bits(r(x)))

    def test_reads_three_field_header(self, rng):
        nodes = log_perturbed_nodes(-1.0, 1.0, 6, rng)
        ys = rng.standard_normal(7)
        old = "\n".join(["7", "3", "1"] + [repr(float(v)) for v in nodes.xs]
                        + [repr(float(v)) for v in ys]) + "\n"
        r2 = load_interpolant(old)
        assert (r2.d, r2.e, r2.compensated) == (3, 1, False)
        assert not r2.nodes.is_equispaced
        assert np.array_equal(r2.ys, ys)

    def test_false_spacing_rejected(self, rng):
        # the binomial weights would be wrong for these nodes
        r = Interpolant(log_perturbed_nodes(-1.0, 1.0, 8, rng),
                        rng.standard_normal(9), 4, 2)
        text = dump_interpolant(r).replace("spacing=none", "spacing=0.25")
        with pytest.raises(ValueError, match="spacing"):
            load_interpolant(text)

    def test_truncated_record_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            load_interpolant("3\n1\n0\n1.0\n2.0\n")


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
