import pickle

import numpy as np
import pytest

from baryblend import (ChebyshevBaseline, CubicSplineBaseline, ExtParams,
                       GridSpec, Interpolant, NodeSet, NoiseSpec,
                       PrecomputedWeights, add_noise, converge_n, error_report,
                       gaussian_deviates, get_function, lebesgue_constant,
                       lebesgue_function, scan_de)
from baryblend.analysis import (converge_csv, runge_error_table,
                                runge_table_csv, scan_csv)

from .conftest import log_perturbed_nodes, perturbed_nodes


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

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown function"):
            get_function("nope")

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="invalid interval"):
            get_function("runge", (2, 2))

    @pytest.mark.parametrize("spec", ["poly:1,,2", "poly:1,2,", "poly:,1",
                                      "poly:1, ,2", "poly:"])
    def test_poly_empty_coefficient_refused(self, spec):
        # "poly:1,,2" is not 1 + 2x
        with pytest.raises(ValueError, match="empty coefficient"):
            get_function(spec)

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 1.0),
                                          (np.nan, 1.0), (0.0, np.nan),
                                          (np.nan, np.nan)])
    def test_non_finite_interval_refused(self, interval):
        with pytest.raises(ValueError, match="invalid interval"):
            get_function("runge", interval)


class TestGridSpec:
    def test_uniform_includes_endpoints(self):
        pts = GridSpec(11).points(-1, 1)
        assert pts[0] == -1.0 and pts[-1] == 1.0 and pts.size == 11

    def test_per_subinterval(self):
        nodes = NodeSet.equispaced(0, 1, 4)
        pts = GridSpec(2, per_subinterval=5).points(0, 1, nodes)
        assert pts.size == 4 * 5 + 1
        assert pts[0] == 0.0 and pts[-1] == 1.0

    @pytest.mark.parametrize("kind", ["equispaced", "jittered", "log",
                                      "subnormal"])
    @pytest.mark.parametrize("k", [1, 3, 10, 40])
    def test_node_relative_grid_matches_per_gap_linspace(self, kind, k, rng):
        # the subnormal set has gaps whose step underflows to 0 at k = 10,
        # where numpy's linspace changes its arithmetic for that gap; an
        # array-valued np.linspace would change it for every gap
        nodes = {
            "equispaced": lambda: NodeSet.equispaced(-1.0, 1.0, 64),
            "jittered": lambda: perturbed_nodes(-1.0, 1.0, 64, rng),
            "log": lambda: log_perturbed_nodes(-5.0, 5.0, 64, rng),
            "subnormal": lambda: NodeSet([0.0, 5e-324, 1e-323, 1e-300,
                                          2e-300, 1.0]),
        }[kind]()
        want = np.concatenate(
            [np.linspace(nodes.xs[i], nodes.xs[i + 1], k + 1)[:-1]
             for i in range(nodes.n)] + [[nodes.b]])
        got = GridSpec(2, per_subinterval=k).points(nodes.a, nodes.b, nodes)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("k", [2.5, 0, -1, "3"])
    def test_bad_per_subinterval_refused(self, k):
        with pytest.raises(ValueError, match="per_subinterval"):
            GridSpec(2, per_subinterval=k)

    def test_integral_per_subinterval_counts_as_int(self):
        nodes = NodeSet.equispaced(0, 1, 4)
        pts = GridSpec(2, per_subinterval=3.0).points(0, 1, nodes)
        want = GridSpec(2, per_subinterval=3).points(0, 1, nodes)
        assert np.array_equal(pts, want)

    def test_per_subinterval_without_nodes_refused(self):
        # without nodes such a grid was the two endpoints alone, which
        # measured a sup error of 1.0 on Runge's function as 0.0385
        grid = GridSpec(2, per_subinterval=10)
        with pytest.raises(ValueError, match="needs the nodes"):
            grid.points(-5.0, 5.0)
        with pytest.raises(ValueError, match="needs the nodes"):
            error_report(lambda x: 0 * x, get_function("runge"), grid)

    def test_node_relative_grid_over_other_interval_refused(self):
        # it spans the nodes whatever a, b are: on [-1, 1] nodes it gave
        # points in [-1, 1] for a, b = -5, 5
        nodes = NodeSet.equispaced(-1.0, 1.0, 20)
        with pytest.raises(ValueError, match="nodes' interval"):
            GridSpec(2, per_subinterval=10).points(-5.0, 5.0, nodes)

    def test_count_too_small(self):
        with pytest.raises(ValueError):
            GridSpec(1)

    def test_non_integral_count_refused(self):
        with pytest.raises(ValueError, match="integer"):
            GridSpec(2.5)
        assert GridSpec(3.0).points(0, 1).size == 3

    def test_every_construction_route_checks(self):
        with pytest.raises(ValueError, match="grid count"):
            GridSpec()._replace(count=1)
        with pytest.raises(ValueError, match="per_subinterval"):
            GridSpec._make([5, 0])
        grid = GridSpec()._replace(per_subinterval=3.0)
        assert grid == (100_001, 3) and type(grid.per_subinterval) is int

    def test_pickles_to_an_equal_spec(self):
        for grid in (GridSpec(), GridSpec(7, per_subinterval=3)):
            back = pickle.loads(pickle.dumps(grid))
            assert back == grid and type(back) is GridSpec


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

    def test_refinement_beats_raw_grid(self):
        # the scan grid: 10 * (d + 1) points per node gap
        nodes = NodeSet.equispaced(-1, 1, 16)
        params = ExtParams(6, 0)
        rep = lebesgue_constant(nodes, params)
        grid = GridSpec(2, per_subinterval=10 * (params.d + 1))
        pts = grid.points(nodes.a, nodes.b, nodes)
        raw = lebesgue_function(nodes, params, pts).max()
        assert rep.lambda_max >= raw

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

    @pytest.mark.parametrize("jittered", [False, True])
    @pytest.mark.parametrize("n,d,e", [(64, 12, 4), (64, 12, 12), (64, 0, 0),
                                       (33, 8, 3), (20, 6, 6), (200, 10, 2)])
    def test_constant_is_the_function_at_its_argmax(self, n, d, e, jittered,
                                                    rng):
        nodes = (perturbed_nodes(-1.0, 1.0, n, rng) if jittered
                 else NodeSet.equispaced(-1.0, 1.0, n))
        params = ExtParams(d, e)
        rep = lebesgue_constant(nodes, params)
        assert rep.lambda_max == lebesgue_function(nodes, params, rep.argmax_x)


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

    def test_node_relative_grid_refused_for_an_interpolant(self):
        # such a grid spanned the interpolant's nodes, not the function's
        # interval: linf read 5.7e-6 here, against 203 on GridSpec(2001)
        r = Interpolant.from_function(NodeSet.equispaced(-1, 1, 20),
                                      RUNGE.fn, d=6, e=2)
        with pytest.raises(ValueError, match="needs the nodes"):
            error_report(r, RUNGE, GridSpec(2, per_subinterval=10))

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
            errs[n] = error_report(sp, RUNGE, GridSpec(20001)).linf
        slope = np.polyfit(np.log10(list(errs)), np.log10(list(errs.values())), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.5)

    def test_spline_takes_plain_node_arrays(self):
        xs, ys = np.linspace(0.0, 1.0, 5), np.arange(5.0)
        sp = CubicSplineBaseline(xs, ys)
        assert sp(0.3) == CubicSplineBaseline(NodeSet(xs), ys)(0.3)

    def test_chebyshev_samples_carry_noise(self):
        noise = NoiseSpec(0.01, 3)
        clean = ChebyshevBaseline(RUNGE, 8)
        noisy = ChebyshevBaseline(RUNGE, 8, noise)
        np.testing.assert_array_equal(noisy.ys, add_noise(clean.ys, noise))

    def test_spline_too_few_nodes(self):
        nodes = NodeSet.equispaced(0, 1, 2)
        with pytest.raises(ValueError, match="n >= 3"):
            CubicSplineBaseline(nodes, np.zeros(3))

    def test_chebyshev_needs_positive_n(self):
        with pytest.raises(ValueError, match="n >= 1"):
            ChebyshevBaseline(RUNGE, 0)

    def test_chebyshev_non_integral_n_refused(self):
        # int() alone would build n = 2 from 2.7
        with pytest.raises(ValueError, match="integer"):
            ChebyshevBaseline(RUNGE, 2.7)


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

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), "0.1"])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec(sigma)

    @pytest.mark.parametrize("seed", [1.5, "1", None])
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(0.1, seed)

    @pytest.mark.parametrize("seed", [-1, -5, 2 ** 64, 2 ** 64 + 5])
    def test_seed_outside_64_bits_refused(self, seed):
        # the generator masks its seed to 64 bits: 2**64 + 5 would draw the
        # deviates of 5, and -5 those of 2**64 - 5
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(0.1, seed)

    def test_64_bit_seeds_accepted(self):
        assert NoiseSpec(0.1, 0).seed == 0
        assert NoiseSpec(0.1, 2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_every_construction_route_checks(self):
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec(0.1)._replace(sigma=-1.0)
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(0.1)._replace(seed=-1)
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec._make([float("nan"), 0])
        spec = NoiseSpec(0.1, 3)
        assert pickle.loads(pickle.dumps(spec)) == spec == (0.1, 3)
        sigma, seed = spec
        assert (sigma, seed) == (0.1, 3)

    def test_integral_seed_counts_as_int(self):
        spec = NoiseSpec(0.1, 3.0)
        assert spec.seed == 3 and isinstance(spec.seed, int)
        np.testing.assert_array_equal(add_noise(np.zeros(5), spec),
                                      add_noise(np.zeros(5), NoiseSpec(0.1, 3)))


class TestScans:
    def test_scan_sentinels_above_diagonal(self):
        res = scan_de(RUNGE, 8, range(4), range(4), GridSpec(501))
        for c in res.cells:
            if c.e > c.d:
                assert c.linf is None and c.lebesgue is None
            else:
                assert c.linf is not None and c.lebesgue is not None

    def test_scan_builds_one_weights_object_per_cell(self, monkeypatch):
        builds = []
        init = PrecomputedWeights.__init__

        def counted(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(PrecomputedWeights, "__init__", counted)
        res = scan_de(RUNGE, 8, range(4), range(4), GridSpec(501))
        assert len(builds) == sum(c.linf is not None for c in res.cells) == 10

    def test_scan_d_above_n_sentinel(self):
        res = scan_de(RUNGE, 4, range(6, 8), range(1), GridSpec(501))
        assert all(c.linf is None for c in res.cells)

    @pytest.mark.parametrize("ds,es", [([-1], [0]), ([2], [-1]), ([2.5], [3])])
    def test_scan_bad_degree_refused(self, ds, es):
        with pytest.raises(ValueError, match="integers"):
            scan_de(RUNGE, 8, ds, es, GridSpec(501))

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

    @pytest.mark.parametrize("cfg", [("fh", 2.7), ("ext", 4.5, 1.9)])
    def test_converge_non_integral_config_refused(self, cfg):
        # int() alone would label the rows fh:2.7 or ext:4.5,1.9 and
        # compute them at (2, 0) or (4, 1)
        with pytest.raises(ValueError, match="integers"):
            converge_n(RUNGE, [cfg], [8], GridSpec(501))

    def test_converge_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown config"):
            converge_n(RUNGE, [("mystery",)], [8], GridSpec(501))

    @pytest.mark.parametrize("cfg", [("fh",), ("ext", 4), ("cheb", 3),
                                     ("fh", 3, 9), ()])
    def test_converge_config_of_wrong_length_refused(self, cfg):
        with pytest.raises(ValueError, match="unknown config"):
            converge_n(RUNGE, [cfg], [8], GridSpec(501))

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_converge_bad_n_refused(self, n):
        # d > n and spline n < 3 would otherwise make sentinel rows
        with pytest.raises(ValueError, match="n values"):
            converge_n(RUNGE, [("fh", 3), ("spline",)], [n], GridSpec(501))

    def test_converge_cheb_rows_carry_noise(self):
        grid, noise = GridSpec(501), NoiseSpec(0.01, 3)
        clean = converge_n(RUNGE, [("cheb",)], [8, 16], grid)
        noisy = converge_n(RUNGE, [("cheb",)], [8, 16], grid, noise)
        for c, r in zip(clean, noisy):
            want = error_report(ChebyshevBaseline(RUNGE, r.n, noise), RUNGE, grid)
            assert (r.linf, r.l1) == (want.linf, want.l1)
            assert r.linf != c.linf

    def test_converge_csv_header(self):
        rows = converge_n(RUNGE, [("cheb",)], [8], GridSpec(501))
        text = converge_csv(rows)
        assert text.startswith("method,n,d,e,linf,l1,lebesgue,seed,sigma\n")

    def test_corrected_12_4_sits_in_small_error_region(self):
        res = scan_de(RUNGE, 64, [2, 12], [0, 4], GridSpec(20_001))
        cell = {(c.d, c.e): c for c in res.cells}
        assert cell[12, 4].linf < 1e-8
        assert cell[12, 4].linf < 1e-2 * cell[12, 0].linf
        assert cell[12, 4].linf < 1e-2 * cell[2, 0].linf

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
