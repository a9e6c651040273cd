import numpy as np
import pytest

from baryblend import (ChebyshevBaseline, CubicSplineBaseline, ExtParams,
                       GridSpec, Interpolant, NodeSet, NoiseSpec, add_noise,
                       converge_n, error_report, gaussian_deviates,
                       get_function, lebesgue_constant, lebesgue_function,
                       register_function, scan_de)
from baryblend.analysis import (converge_csv, runge_error_table,
                                runge_table_csv, scan_csv)


RUNGE = get_function("runge")


class TestReferenceFunctions:
    def test_runge_default_interval(self):
        assert RUNGE.interval == (-5.0, 5.0)
        assert RUNGE(0.0) == 1.0
        assert RUNGE(2.0) == 0.2

    def test_interval_override(self):
        f = get_function("runge", (-3, 7))
        assert f.interval == (-3.0, 7.0)

    def test_poly_hook(self):
        f = get_function("poly:1,0,2")       # 1 + 2 x^2
        assert f(3.0) == 19.0

    def test_register_hook(self):
        register_function("absx", np.abs, (-1, 1))
        assert get_function("absx")(-0.5) == 0.5

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown function"):
            get_function("nope")

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="invalid interval"):
            get_function("runge", (2, 2))


class TestGridSpec:
    def test_uniform_includes_endpoints(self):
        pts = GridSpec(11).points(-1, 1)
        assert pts[0] == -1.0 and pts[-1] == 1.0 and pts.size == 11

    def test_per_subinterval(self):
        nodes = NodeSet.equispaced(0, 1, 4)
        pts = GridSpec(2, per_subinterval=5).points(0, 1, nodes)
        assert pts.size == 4 * 5 + 1
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_count_too_small(self):
        with pytest.raises(ValueError):
            GridSpec(1)


class TestLebesgue:
    def test_one_at_nodes(self):
        nodes = NodeSet.equispaced(-1, 1, 12)
        params = ExtParams(4, 2)
        vals = lebesgue_function(nodes, params, nodes.xs)
        np.testing.assert_array_equal(vals, np.ones(13))

    def test_at_least_one_everywhere(self, rng):
        nodes = NodeSet.equispaced(-1, 1, 16)
        params = ExtParams(6, 0)
        xs = rng.uniform(-1, 1, 500)
        assert np.all(lebesgue_function(nodes, params, xs) >= 1.0 - 1e-12)

    def test_end_subinterval_exceeds_center(self):
        # conditioning is worst near the interval ends for the plain blend
        nodes = NodeSet.equispaced(-1, 1, 16)
        params = ExtParams(4, 0)
        mid_left = 0.5 * (nodes.xs[0] + nodes.xs[1])
        assert (lebesgue_function(nodes, params, float(mid_left))
                > lebesgue_function(nodes, params, 0.0))

    def test_two_point_linear_constant_is_one(self):
        nodes = NodeSet.equispaced(0, 1, 1)
        rep = lebesgue_constant(nodes, ExtParams(1, 0))
        assert rep.lambda_max == pytest.approx(1.0, abs=1e-9)

    def test_estimate_monotone_under_refinement(self):
        nodes = NodeSet.equispaced(-1, 1, 16)
        params = ExtParams(6, 0)
        coarse = lebesgue_constant(nodes, params,
                                   GridSpec(2, per_subinterval=40))
        fine = lebesgue_constant(nodes, params,
                                 GridSpec(2, per_subinterval=80))
        assert fine.lambda_max >= coarse.lambda_max * (1 - 1e-9)

    def test_refinement_beats_raw_grid(self):
        nodes = NodeSet.equispaced(-1, 1, 16)
        params = ExtParams(6, 0)
        rep = lebesgue_constant(nodes, params)
        pts = rep.grid.points(nodes.a, nodes.b, nodes)
        raw = lebesgue_function(nodes, params, pts).max()
        assert rep.lambda_max >= raw

    def test_grid_too_coarse_rejected(self):
        nodes = NodeSet.equispaced(-1, 1, 16)
        with pytest.raises(ValueError, match="grid"):
            lebesgue_constant(nodes, ExtParams(3, 0), GridSpec(20))

    def test_exponential_growth_in_d_at_e0(self):
        nodes = NodeSet.equispaced(-1, 1, 32)
        lams = [lebesgue_constant(nodes, ExtParams(d, 0)).lambda_max
                for d in (2, 5, 8, 11)]
        ratios = [lams[i + 1] / lams[i] for i in range(3)]
        assert all(r > 2.0 for r in ratios)

    def test_end_corrections_shrink_constant_at_n64(self):
        nodes = NodeSet.equispaced(-1, 1, 64)
        l0 = lebesgue_constant(nodes, ExtParams(12, 0)).lambda_max
        l4 = lebesgue_constant(nodes, ExtParams(12, 4)).lambda_max
        assert l4 < l0


class TestErrorReport:
    def test_l1_bounded_by_interval_times_linf(self, rng):
        nodes = NodeSet.equispaced(-5, 5, 20)
        r = Interpolant.from_function(nodes, RUNGE.fn, d=3)
        rep = error_report(r, RUNGE, GridSpec(5001))
        assert rep.l1 <= 10.0 * rep.linf * (1 + 1e-12)
        assert rep.linf >= 0 and rep.l1 >= 0

    def test_linf_monotone_under_grid_refinement(self):
        nodes = NodeSet.equispaced(-5, 5, 16)
        r = Interpolant.from_function(nodes, RUNGE.fn, d=4, e=2)
        # nested grids: 2m-1 points contain the m-point grid
        rep1 = error_report(r, RUNGE, GridSpec(2001))
        rep2 = error_report(r, RUNGE, GridSpec(4001))
        assert rep2.linf >= rep1.linf * (1 - 1e-12)

    def test_interpolated_polynomial_error_vanishes(self, rng):
        f = get_function("poly:0.5,1,0.25,0.125", (-2, 2))
        nodes = NodeSet.equispaced(-2, 2, 16)
        r = Interpolant.from_function(nodes, f.fn, d=6, e=3)  # d - e = 3
        rep = error_report(r, f, GridSpec(2001))
        assert rep.linf < 1e-9 * 3.0

    def test_l1_is_correctly_rounded_sum_of_trapezoid_terms(self):
        # on the grid 0, 1, 2, 3 these errors give the trapezoid terms
        # 1.0, 1e-16, 1e-16: a left-to-right or pairwise sum returns 1.0,
        # the correctly rounded sum is the next double above 1
        zero = get_function("poly:0", (0.0, 3.0))
        errs = np.array([2.0, 0.0, 2e-16, 0.0])
        rep = error_report(lambda x: errs, zero, GridSpec(4))
        assert rep.l1 == 1.0 + 2.0 ** -52


class TestBaselines:
    def test_chebyshev_linear_exact(self):
        f = get_function("poly:0,1", (-2, 6))
        cheb = ChebyshevBaseline(f, 1)
        for x in (-2.0, 0.3, 5.1, 6.0):
            assert cheb(x) == pytest.approx(x, rel=1e-14)

    def test_chebyshev_interpolates_at_nodes(self):
        cheb = ChebyshevBaseline(RUNGE, 12)
        np.testing.assert_allclose(cheb(cheb.nodes.xs), cheb.ys, rtol=1e-12)

    def test_chebyshev_geometric_decay(self):
        errs = [error_report(ChebyshevBaseline(RUNGE, n), RUNGE,
                             GridSpec(4001)).linf for n in (20, 40, 80)]
        assert errs[1] < 0.1 * errs[0]
        assert errs[2] < 0.1 * errs[1]

    def test_spline_reproduces_cubics(self):
        f = get_function("poly:0,0,0,1", (-1, 2))   # x^3
        nodes = NodeSet.equispaced(-1, 2, 7)
        sp = CubicSplineBaseline(nodes, f(nodes.xs))
        for x in np.linspace(-1, 2, 23):
            assert sp(float(x)) == pytest.approx(x ** 3, rel=1e-12, abs=1e-12)

    def test_spline_interpolates_data(self, rng):
        nodes = NodeSet.equispaced(-5, 5, 9)
        ys = rng.standard_normal(10)
        sp = CubicSplineBaseline(nodes, ys)
        np.testing.assert_allclose(sp(nodes.xs), ys, rtol=1e-12)

    def test_spline_quartic_rate(self):
        errs = {}
        for n in (20, 40, 80, 160, 320):
            nodes = NodeSet.equispaced(-5, 5, n)
            sp = CubicSplineBaseline(nodes, RUNGE(nodes.xs))
            errs[n] = error_report(sp, RUNGE, GridSpec(20001), n=n).linf
        slope = np.polyfit(np.log10(list(errs)), np.log10(list(errs.values())), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.5)

    def test_spline_too_few_nodes(self):
        nodes = NodeSet.equispaced(0, 1, 2)
        with pytest.raises(ValueError, match="n >= 3"):
            CubicSplineBaseline(nodes, np.zeros(3))

    def test_chebyshev_needs_positive_n(self):
        with pytest.raises(ValueError, match="n >= 1"):
            ChebyshevBaseline(RUNGE, 0)


class TestNoise:
    def test_sigma_zero_is_identity(self):
        ys = np.arange(8.0)
        np.testing.assert_array_equal(add_noise(ys, NoiseSpec(0.0, 42)), ys)

    def test_fixed_seed_is_deterministic(self):
        ys = np.zeros(11)
        a = add_noise(ys, NoiseSpec(1e-8, 42))
        b = add_noise(ys, NoiseSpec(1e-8, 42))
        np.testing.assert_array_equal(a, b)
        c = add_noise(ys, NoiseSpec(1e-8, 43))
        assert not np.array_equal(a, c)

    def test_empirical_standard_deviation(self):
        g = gaussian_deviates(7, 100_000)
        assert np.std(g) == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(g)) < 0.02

    def test_prefix_stability(self):
        # the first k deviates do not depend on how many are drawn
        a = gaussian_deviates(3, 10)
        b = gaussian_deviates(3, 50)
        np.testing.assert_array_equal(a, b[:10])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-1.0, 0)


class TestScans:
    def test_scan_sentinels_above_diagonal(self):
        res = scan_de(RUNGE, 8, range(4), range(4), GridSpec(501))
        for c in res.cells:
            if c.e > c.d:
                assert c.linf is None and c.lebesgue is None
            else:
                assert c.linf is not None and c.lebesgue is not None

    def test_scan_d_above_n_sentinel(self):
        res = scan_de(RUNGE, 4, range(6, 8), range(1), GridSpec(501))
        assert all(c.linf is None for c in res.cells)

    def test_scan_csv_shape_and_na(self):
        res = scan_de(RUNGE, 8, range(3), range(3), GridSpec(501))
        text = scan_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "n,d,e,linf,l1,lebesgue,seed,sigma"
        assert len(lines) == 1 + 9
        assert any(",NA,NA,NA," in ln for ln in lines[1:])

    def test_converge_rows_and_sentinels(self):
        rows = converge_n(RUNGE, [("fh", 3), ("ext", 14, 4), ("cheb",), ("spline",)],
                          [2, 10, 20], GridSpec(501))
        by = {(r.method, r.n): r for r in rows}
        assert by[("ext:14,4", 2)].linf is None      # d > n
        assert by[("ext:14,4", 20)].linf is not None
        assert by[("spline", 2)].linf is None        # too few nodes
        assert by[("fh", 3) if ("fh", 3) in by else ("fh:3", 10)].linf is not None

    def test_converge_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown config"):
            converge_n(RUNGE, [("mystery",)], [8], GridSpec(501))

    def test_converge_csv_header(self):
        rows = converge_n(RUNGE, [("cheb",)], [8], GridSpec(501))
        text = converge_csv(rows)
        assert text.startswith("method,n,d,e,linf,l1,lebesgue,seed,sigma\n")

    def test_corrected_12_4_sits_in_small_error_region(self):
        res = scan_de(RUNGE, 64, [2, 12], [0, 4], GridSpec(20_001))
        assert res.cell(12, 4).linf < 1e-8
        assert res.cell(12, 4).linf < 1e-2 * res.cell(12, 0).linf
        assert res.cell(12, 4).linf < 1e-2 * res.cell(2, 0).linf

    def test_e4_curves_collapse_in_exponential_regime(self):
        # at fixed e=4 the error is governed by the end degree d-e, so
        # several d give nearly one curve; the plain blends spread widely
        grid = GridSpec(4001)
        rows = converge_n(RUNGE, [("ext", 8, 4), ("ext", 12, 4), ("ext", 16, 4),
                                  ("fh", 4), ("fh", 8), ("fh", 12)],
                          [32, 48], grid)
        by = {(r.method, r.n): r.linf for r in rows}
        for n in (32, 48):
            ext = [by[(m, n)] for m in ("ext:8,4", "ext:12,4", "ext:16,4")]
            fh = [by[(m, n)] for m in ("fh:4", "fh:8", "fh:12")]
            assert max(ext) / min(ext) < 1.5
            assert max(fh) / min(fh) > 50.0

    def test_fh_parity_oscillation_damped_by_corrections(self):
        # classical blend: error depends on the parity of n; corrected
        # blend: far smaller swing between adjacent n
        grid = GridSpec(4001)
        def swing(cfg, pair):
            rows = converge_n(RUNGE, [cfg], list(pair), grid)
            a, b = rows[0].linf, rows[1].linf
            return max(a, b) / min(a, b)
        for pair in ((40, 41), (80, 81)):
            assert swing(("fh", 7), pair) > 4.0
            assert swing(("ext", 14, 4), pair) < 2.0


class TestRungeTable:
    def test_row_orders_match_reference_on_coarse_grid(self):
        rows = runge_error_table(GridSpec(20_001))
        by_n = {r.n: r for r in rows}
        assert by_n[10].linf_fh == pytest.approx(3.606e-2, rel=1e-2)
        assert by_n[40].linf_ext == pytest.approx(3.463e-6, rel=1e-2)
        assert by_n[10].d_ext == 10 and by_n[20].d_ext == 14

    def test_csv_layout(self):
        rows = runge_error_table(GridSpec(2001))
        text = runge_table_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n,d_fh,linf_fh,l1_fh,d_ext,e_ext,linf_ext,l1_ext"
        assert len(lines) == 6
