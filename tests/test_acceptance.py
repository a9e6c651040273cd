"""Acceptance suite: each test exercises one exit criterion at its stated
tolerance and prints/records a pass or fail line."""

import time
from pathlib import Path

import numpy as np
import pytest

from baryblend import (ChebyshevBaseline, CubicSplineBaseline, ExtParams,
                       GridSpec, Interpolant, NodeSet, NoiseSpec, add_noise,
                       converge_n, error_report, get_function,
                       lebesgue_constant, lebesgue_function, scan_de)
from baryblend.analysis import converge_csv, runge_error_table, scan_csv
from baryblend.oracle import (blend_form_value, denominator_sign_scans,
                              fh_value)

from .conftest import record_acceptance

RUNGE = get_function("runge")
GOLDEN = Path(__file__).parent / "golden"

# Reference values for 1/(1+x^2) on [-5, 5]: classical blend at its known
# best degree per n, and the end-corrected blend at (min(14, n), 4).
TABLE_REFERENCE = {
    # n: (linf_fh, l1_fh, linf_ext, l1_ext)
    10: (3.606e-2, 1.601e-1, 3.005e-2, 1.243e-1),
    20: (1.536e-3, 6.656e-3, 1.674e-3, 4.519e-3),
    40: (4.307e-6, 1.306e-5, 3.463e-6, 1.220e-5),
    80: (2.038e-10, 8.003e-11, 1.214e-11, 4.684e-11),
    160: (1.887e-15, 9.230e-16, 1.887e-15, 9.226e-16),
}
FLOOR = 2e-15          # at or below: match absolutely, not relatively
ABS_TOL = 5e-16
REL_TOL = 5e-3

U = np.finfo(float).eps / 2    # unit roundoff of IEEE double


def _error_and_rounding_bound(n, d, e, grid):
    """Pointwise error of one table interpolant on the grid, and a
    first-order bound on the rounding error of that computed error.

    The bound has the form Higham derives for the barycentric quotient
    (N. J. Higham, IMA J. Numer. Anal. 24 (2004), section 4):

        |r_hat(x) - r(x)| <= (3n+4) u sum_j |l_j(x) y_j|
                             + (3n+2) u Lambda(x) |r(x)| + O(u^2),

    with ``l_j`` the interpolant's basis functions and ``Lambda(x)`` their
    absolute sum (its Lebesgue function). Here ``sum_j |l_j y_j|`` is bounded
    by ``Lambda(x) max|y|``, ``r`` is replaced by ``f`` (they differ by the
    error itself, a second-order change), and ``3u |f(x)|`` covers the three
    roundings in the reference ``1/(1 + x*x)``.
    """
    nodes = NodeSet.equispaced(*RUNGE.interval, n)
    ys = RUNGE(nodes.xs)
    r = Interpolant(nodes, ys, d, e)
    pts = grid.points(*RUNGE.interval)
    fx = RUNGE(pts)
    err = np.abs(r(pts) - fx)
    lam = lebesgue_function(nodes, r.params, pts)
    bound = U * ((3 * n + 4) * lam * np.abs(ys).max()
                 + (3 * n + 2) * lam * np.abs(fx) + 3.0 * np.abs(fx))
    return err, bound


def test_criterion_1_error_table_reproduction():
    grid = GridSpec(100_001)
    t0 = time.monotonic()
    rows = runge_error_table(grid)
    elapsed = time.monotonic() - t0
    failures = []
    floor_notes = []
    for r in rows:
        ref = TABLE_REFERENCE[r.n]
        got = (r.linf_fh, r.l1_fh, r.linf_ext, r.l1_ext)
        names = ("linf_fh", "l1_fh", "linf_ext", "l1_ext")
        for name, value, expected in zip(names, got, ref):
            if expected <= FLOOR:
                ok = abs(value - expected) <= ABS_TOL
            else:
                ok = abs(value - expected) <= REL_TOL * expected
            why = f"expected {expected:.3e}"
            if name.startswith("linf"):
                # The rounding bound separates the sup-norm cells as the
                # table does: a cell above the floor is interpolation error,
                # so the bound must reject it; a cell at the floor is
                # rounding, so it is held to the bound at every grid point
                # instead of to one pipeline's rounding realization.
                d, e = (r.d_fh, 0) if name == "linf_fh" else (r.d_ext, r.e_ext)
                err, bound = _error_and_rounding_bound(r.n, d, e, grid)
                if err.max() != value:
                    ok, why = False, f"grid error max {err.max():.6e} differs"
                elif expected > FLOOR and value <= bound.max():
                    ok, why = False, f"within rounding bound {bound.max():.2e}"
                elif expected <= FLOOR:
                    ok = bool(np.all(err <= bound))
                    why = f"over rounding bound at {np.sum(err > bound)} points"
                    floor_notes.append(
                        f"n={r.n} {name} {value:.3e} (table {expected:.3e}, "
                        f"rounding bound <= {bound.max():.2e}, least margin "
                        f"{np.min(bound / np.maximum(err, 1e-300)):.0f}x)")
            if not ok:
                failures.append(f"n={r.n} {name}: got {value:.6e}, {why}")
    ok = not failures and elapsed < 30.0
    detail = "; ".join([f"{elapsed:.1f}s"] + floor_notes + failures)
    record_acceptance("1 error-table reproduction", ok, detail)
    assert elapsed < 30.0
    assert not failures, "cells outside tolerance: " + "; ".join(failures)


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(0xACCE97)
    t0 = time.monotonic()
    worst = 0.0
    cases = 0
    while cases < 600:
        n = int(rng.integers(4, 21))
        d = int(rng.integers(0, n + 1))
        e = int(rng.integers(0, min(d, 6) + 1))
        kind = rng.integers(0, 3)
        if kind == 0:
            nodes = NodeSet.equispaced(-1.0, 1.0, n)
        elif kind == 1:
            xs = np.linspace(-1, 1, n + 1)
            xs[1:-1] += rng.uniform(-0.3, 0.3, n - 1) * (2.0 / n)
            nodes = NodeSet(np.sort(xs))
        else:
            gaps = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
            xs = np.concatenate([[0.0], np.cumsum(gaps)])
            xs = -1.0 + 2.0 * xs / xs[-1]
            xs[0], xs[-1] = -1.0, 1.0
            nodes = NodeSet(xs)
        ys = rng.uniform(-2.0, 2.0, n + 1)
        r = Interpolant(nodes, ys, d, e)
        scale_floor = np.abs(ys).max()
        for _ in range(5):
            x = float(rng.uniform(-1.05, 1.05))
            if np.min(np.abs(x - nodes.xs)) < 0.02 * np.min(np.diff(nodes.xs)):
                continue
            a = r.eval(x).value
            b = blend_form_value(nodes, ys, r.params, x)
            # relative to the larger magnitude, floored at the data scale
            # (off-node zero crossings would otherwise divide by ~0)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), scale_floor))
            cases += 1
    ok = worst <= 1e-10
    record_acceptance("2 oracle equivalence",
                      ok, f"{cases} cases, worst rel {worst:.2e}, "
                          f"{time.monotonic() - t0:.1f}s")
    assert ok


def test_criterion_3_no_pole_witness():
    rng = np.random.default_rng(0x90135)
    grid_cache = {}
    checked = 0
    min_seen = np.inf
    for n in (8, 16, 33, 64):
        if n not in grid_cache:
            grid_cache[n] = np.linspace(-1.0, 1.0, 10_000)
        node_sets = [NodeSet.equispaced(-1.0, 1.0, n)]
        xs = np.linspace(-1, 1, n + 1)
        xs[1:-1] += rng.uniform(-0.35, 0.35, n - 1) * (2.0 / n)
        node_sets.append(NodeSet(np.sort(xs)))
        for nodes in node_sets:
            grid = np.linspace(nodes.a, nodes.b, 10_000)
            dmax = min(12, n)
            for e in range(0, dmax + 1):
                ds = range(e, dmax + 1)
                for d, rep in zip(ds, denominator_sign_scans(nodes, e, ds, grid)):
                    checked += 1
                    min_seen = min(min_seen, rep.min_value)
                    if not rep.all_positive:
                        record_acceptance(
                            "3 no-pole witness", False,
                            f"sign change at x={rep.argmin_x} "
                            f"(n={n}, d={d}, e={e})")
                        assert rep.all_positive
    record_acceptance("3 no-pole witness", True,
                      f"{checked} scans, min normalized value {min_seen:.3e}")
    assert checked > 0


def test_criterion_4_exactness_and_reproduction():
    rng = np.random.default_rng(0xE4AC7)
    # node exactness: equality after snapping
    for trial in range(30):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(0, n + 1))
        e = int(rng.integers(0, d + 1))
        if trial % 2 == 0:
            nodes = NodeSet.equispaced(-1.0, 1.0, n)
        else:
            gaps = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
            xs = np.concatenate([[0.0], np.cumsum(gaps)])
            xs = -1.0 + 2.0 * xs / xs[-1]
            xs[0], xs[-1] = -1.0, 1.0
            nodes = NodeSet(xs)
        ys = rng.uniform(-3.0, 3.0, n + 1)
        r = Interpolant(nodes, ys, d, e)
        for j in range(n + 1):
            out = r.eval(float(nodes.xs[j]))
            assert out.at_node == j and out.value - ys[j] == 0.0

    # polynomial reproduction, degree sweep k = 0 .. d-e
    worst = 0.0
    for n in (12, 24, 32):
        nodes = NodeSet.equispaced(-1.0, 1.0, n)
        for d, e in ((0, 0), (3, 0), (4, 2), (8, 4), (12, 4), (6, 6)):
            for k in range(0, d - e + 1):
                coeffs = rng.uniform(-1.0, 1.0, k + 1)
                poly = np.polynomial.Polynomial(coeffs)
                ys = poly(nodes.xs)
                r = Interpolant(nodes, ys, d, e)
                scale = max(1.0, np.abs(ys).max())
                for x in rng.uniform(-1.0, 1.0, 50):
                    err = abs(r.eval(float(x)).value - poly(x)) / scale
                    worst = max(worst, err)
    ok = worst <= 1e-9
    record_acceptance("4 exactness and polynomial reproduction",
                      ok, f"worst scaled error {worst:.2e}")
    assert ok


def test_criterion_5_e0_reduction():
    rng = np.random.default_rng(0x5E0)
    worst = 0.0
    for n, d in ((8, 3), (16, 0), (16, 8), (33, 12), (64, 5)):
        for equi in (True, False):
            if equi:
                nodes = NodeSet.equispaced(-2.0, 2.0, n)
            else:
                xs = np.linspace(-2, 2, n + 1)
                xs[1:-1] += rng.uniform(-0.3, 0.3, n - 1) * (4.0 / n)
                nodes = NodeSet(np.sort(xs))
            ys = rng.uniform(-2.0, 2.0, n + 1)
            r = Interpolant(nodes, ys, d, 0)
            scale_floor = np.abs(ys).max()
            for x in rng.uniform(-2.2, 2.2, 1000):
                a = r.eval(float(x)).value
                b = fh_value(r, float(x))
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), scale_floor))
    ok = worst <= 1e-14
    record_acceptance("5 e=0 reduction", ok, f"worst rel {worst:.2e}")
    assert ok


# Lebesgue constants at n = 64 equispaced nodes on [-1, 1], computed
# independently of the library's weights and evaluator: the blend form
# (blending weights from the chi products, Lagrange bases on every window)
# evaluated in mpmath 1.3.0 at 40 digits, Lambda(x) = sum_j |l_j(x)| scanned
# at 59 points in each of the three end subintervals at either end, then
# golden-section refined to 20 digits. Maxima at x = -0.99142870978617 for
# (12, 0) and x = 0.98943147256990 for (12, 4).
LAMBDA_12_0 = 1086.6877327506051
LAMBDA_12_4 = 11.228074223152127


def test_criterion_6_lebesgue_region():
    nodes = NodeSet.equispaced(-1.0, 1.0, 64)
    lam = {e: lebesgue_constant(nodes, ExtParams(12, e)).lambda_max
           for e in (0, 4, 7, 8, 9, 10, 11, 12)}
    ratio = lam[4] / lam[0]
    flat = [lam[e] for e in range(7, 13)]
    flatness = max(flat) / min(flat)
    ok_flat = flatness <= 3.0
    ok_values = (lam[0] == pytest.approx(LAMBDA_12_0, rel=1e-8)
                 and lam[4] == pytest.approx(LAMBDA_12_4, rel=1e-8))
    # the README's claim: about two orders of magnitude below the plain blend
    orders = round(np.log10(lam[0] / lam[4]))
    ok_ratio = orders == 2
    record_acceptance(
        "6 lebesgue region", ok_flat and ok_values and ok_ratio,
        f"L(12,0)={lam[0]:.10g} (ref {LAMBDA_12_0:.10g}), "
        f"L(12,4)={lam[4]:.10g} (ref {LAMBDA_12_4:.10g}), ratio={ratio:.4e} "
        f"({orders} orders, need 2), flatness e in 7..12: {flatness:.3f} "
        f"(need <=3)")
    assert ok_flat, f"flat-region spread {flatness}"
    assert ok_values, (lam[0], lam[4])
    assert ok_ratio, f"Lambda(12,4)/Lambda(12,0) = {ratio:.6e}"


def _log_linear_r2(ns, errs):
    x = np.asarray(ns, dtype=float)
    y = np.log10(errs)
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot, coef[0]


def test_criterion_7_convergence_shapes(tmp_path):
    grid = GridSpec(20_001)

    # chebyshev baseline: geometric decay before the precision floor
    ns = [20, 40, 60, 80, 100, 120, 140, 160]
    errs = np.array([error_report(ChebyshevBaseline(RUNGE, n), RUNGE,
                                  grid).linf for n in ns])
    keep = errs > 1e-12
    r2, slope = _log_linear_r2(np.array(ns)[keep], errs[keep])
    ok_cheb = r2 > 0.99 and slope < 0

    # cubic spline: fourth-order power law
    ns_sp = [20, 40, 80, 160, 320]
    errs_sp = []
    for n in ns_sp:
        nd = NodeSet.equispaced(-5, 5, n)
        errs_sp.append(error_report(CubicSplineBaseline(nd, RUNGE(nd.xs)),
                                    RUNGE, grid).linf)
    sp_slope = np.polyfit(np.log10(ns_sp), np.log10(errs_sp), 1)[0]
    ok_spline = abs(sp_slope + 4.0) <= 0.5

    # classical d=3 and corrected (14,4): monotone decrease after smoothing
    # over even/odd pairs
    pairs = [(10, 11), (20, 21), (40, 41), (80, 81), (160, 161)]
    flat_ns = [v for p in pairs for v in p]
    ok_mono = True
    for cfg in (("fh", 3), ("ext", 14, 4)):
        rows = converge_n(RUNGE, [cfg], flat_ns, grid)
        vals = {r.n: r.linf for r in rows}
        sm = [float(np.sqrt(vals[a] * vals[b]))
              for a, b in pairs if vals[a] is not None]
        ok_mono &= all(sm[i + 1] < sm[i] for i in range(len(sm) - 1))

    # the full eight-approximant comparison, kept as CSV
    configs = [("cheb",), ("spline",), ("fh", 4), ("fh", 8), ("fh", 12),
               ("ext", 8, 4), ("ext", 12, 4), ("ext", 16, 4)]
    rows = converge_n(RUNGE, configs, flat_ns, grid)
    out = tmp_path / "convergence_eight_approximants.csv"
    out.write_text(converge_csv(rows))
    ok_csv = len(rows) == len(configs) * len(flat_ns)

    ok = ok_cheb and ok_spline and ok_mono and ok_csv
    record_acceptance(
        "7 convergence shapes", ok,
        f"cheb R2={r2:.5f}, spline slope={sp_slope:.2f}, "
        f"monotone={ok_mono}, csv rows={len(rows)}")
    assert ok_cheb, f"chebyshev fit R2 {r2}"
    assert ok_spline, f"spline log-log slope {sp_slope}"
    assert ok_mono
    assert ok_csv


# Golden values for the fixed noise realization (sigma=1e-8, seed=2024,
# SplitMix64/Box-Muller), frozen from the recorded run.
NOISY_LINF_EXT = 4.013203074026972e-08
NOISY_LINF_FH = 2.743778137366537e-06


def test_criterion_8_noise_sensitivity():
    noise = NoiseSpec(sigma=1e-8, seed=2024)
    res = scan_de(RUNGE, 64, [12], [0, 4], GridSpec(100_001), noise=noise)
    cell = {(c.d, c.e): c for c in res.cells}
    ext = cell[12, 4].linf
    fh = cell[12, 0].linf
    ok_bound = ext < 1e-5
    ok_gap = fh >= 10.0 * ext
    ok_golden_vals = (ext == pytest.approx(NOISY_LINF_EXT, rel=1e-12)
                      and fh == pytest.approx(NOISY_LINF_FH, rel=1e-12))
    golden = (GOLDEN / "noise_scan_n64.csv").read_text()
    ok_golden_file = scan_csv(res) == golden
    ok = ok_bound and ok_gap and ok_golden_vals and ok_golden_file
    record_acceptance(
        "8 noise sensitivity", ok,
        f"ext(12,4)={ext:.3e} (<1e-5: {ok_bound}), fh(12,0)={fh:.3e}, "
        f"gap {fh / ext:.0f}x (>=10: {ok_gap}), golden match {ok_golden_file}")
    assert ok_bound and ok_gap
    assert ok_golden_vals and ok_golden_file


def test_criterion_9_determinism():
    noise = NoiseSpec(sigma=1e-8, seed=99)
    def render():
        res = scan_de(RUNGE, 16, range(0, 6), range(0, 6), GridSpec(2001),
                      noise=noise)
        return scan_csv(res)
    a, b = render(), render()
    rows = converge_n(RUNGE, [("fh", 3), ("ext", 8, 4)], [10, 20, 40],
                      GridSpec(2001), noise=noise)
    c = converge_csv(rows, noise)
    rows2 = converge_n(RUNGE, [("fh", 3), ("ext", 8, 4)], [10, 20, 40],
                       GridSpec(2001), noise=noise)
    d = converge_csv(rows2, noise)
    ok = a == b and c == d
    record_acceptance("9 determinism", ok,
                      f"scan bytes equal: {a == b}, converge bytes equal: {c == d}")
    assert ok
