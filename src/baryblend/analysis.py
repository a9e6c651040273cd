"""Conditioning and approximation-error analysis tools.

Lebesgue functions and constants, sup/L1 error reports against reference
functions, polynomial and spline baseline approximants, reproducible
Gaussian sample noise, and the parameter sweeps used to benchmark the
interpolants. Sweep results serialize to CSV with columns
``n, d, e, linf, l1, lebesgue, seed, sigma`` (missing entries as ``NA``).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .interpolant import Interpolant, end_coefs, pointwise, term_sums
from .interpolant import term_rows  # noqa: F401  (public as analysis.term_rows)
from .nodes import NodeSet, validate_samples, whole
from .weights import ExtParams, PrecomputedWeights

SENTINEL = "NA"


# -- reference functions ----------------------------------------------------

@dataclass(frozen=True)
class ReferenceFunction:
    """A named closed-form function with a default interval."""
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    interval: tuple[float, float]

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _runge(x):
    return 1.0 / (1.0 + x * x)


_REGISTRY: dict[str, ReferenceFunction] = {}


def register_function(name, fn, interval):
    """Add a reference function to the registry (the extension hook for
    user-supplied test functions, e.g. piecewise polynomials)."""
    ref = ReferenceFunction(name, fn, (float(interval[0]), float(interval[1])))
    _REGISTRY[name] = ref
    return ref


register_function("runge", _runge, (-5.0, 5.0))


def get_function(spec, interval=None):
    """Look up a reference function.

    ``spec`` is a registered name, or ``poly:c0,c1,...`` for a polynomial
    with the given ascending coefficients. ``interval`` overrides the
    registered default.
    """
    if spec.startswith("poly:"):
        coeffs = [float(t) for t in spec[5:].split(",") if t]
        if not coeffs:
            raise ValueError("poly: needs at least one coefficient")
        poly = np.polynomial.Polynomial(coeffs)
        ref = ReferenceFunction(spec, lambda x: poly(x), (-1.0, 1.0))
    else:
        try:
            ref = _REGISTRY[spec]
        except KeyError:
            raise ValueError(f"unknown function {spec!r}; "
                             f"known: {sorted(_REGISTRY)}") from None
    if interval is not None:
        ref = ReferenceFunction(ref.name, ref.fn,
                                (float(interval[0]), float(interval[1])))
    if ref.interval[0] >= ref.interval[1]:
        raise ValueError("invalid interval: need a < b")
    return ref


# -- grids ------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid over an interval, endpoints included.

    ``per_subinterval``, when set, switches to a node-relative grid with
    that many uniform points per node gap (used by the Lebesgue-constant
    search). Both must be integral (``3.0`` counts as ``3``).
    """
    count: int = 100_001
    per_subinterval: Optional[int] = None

    def __post_init__(self):
        count = whole(self.count)
        if count is None or count < 2:
            raise ValueError("grid count must be an integer >= 2")
        object.__setattr__(self, "count", count)
        if self.per_subinterval is not None:
            k = whole(self.per_subinterval)
            if k is None or k < 1:
                raise ValueError("per_subinterval must be an integer >= 1")
            object.__setattr__(self, "per_subinterval", k)

    def points(self, a, b, nodes: NodeSet | None = None):
        if self.per_subinterval is not None and nodes is not None:
            # np.linspace(x_i, x_{i+1}, k + 1)[:-1] for every gap at once,
            # with its arithmetic per row: i * (gap / k) + x_i, or
            # i / k * gap + x_i for a row whose step underflows to 0
            k, xs = self.per_subinterval, nodes.xs
            gap = xs[1:] - xs[:-1]
            step = gap / k
            i = np.arange(k, dtype=float)
            grid = step[:, None] * i
            flat = step == 0.0
            if flat.any():
                grid[flat] = gap[flat, None] * (i / k)
            grid += xs[:-1, None]
            return np.append(grid.ravel(), nodes.b)
        return np.linspace(a, b, self.count)


# -- error measurement --------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    """Sup and L1 error of an approximant against a reference function."""
    linf: float
    l1: float


def error_report(approx, f: ReferenceFunction, grid: GridSpec) -> ErrorReport:
    """Measure ``approx`` against ``f`` on the grid over ``f``'s interval.

    ``linf`` is the max of the pointwise error; ``l1`` integrates it with
    the composite trapezoid rule on the same grid. The trapezoid terms are
    rounded one element at a time and then summed correctly rounded
    (``math.fsum``), so ``l1`` has the same bits on every CPU, which
    numpy's SIMD pairwise sum does not promise. ``approx`` is any callable
    accepting an array of points; a node-relative grid uses its ``nodes``.
    """
    pts = grid.points(*f.interval, getattr(approx, "nodes", None))
    err = np.abs(np.asarray(approx(pts)) - f(pts))
    terms = np.diff(pts) * (err[1:] + err[:-1]) / 2.0
    return ErrorReport(float(err.max()), math.fsum(terms.tolist()))


# -- Lebesgue function and constant --------------------------------------

@dataclass(frozen=True)
class LebesgueReport:
    """Estimated Lebesgue constant and where it was attained."""
    lambda_max: float
    argmax_x: float
    grid: GridSpec


def lebesgue_function(nodes: NodeSet, params: ExtParams, x,
                      weights: PrecomputedWeights | None = None):
    """Sum of absolute basis-function values at ``x`` (scalar or array).

    Equals 1 exactly at nodes; at least 1 everywhere (the basis functions
    sum to one).
    """
    if weights is None:
        weights = PrecomputedWeights(nodes, params.validate(nodes))

    def off_nodes(xo):
        abssum, den = term_sums(nodes.xs, weights.fh, xo,
                                ends=end_coefs(weights, nodes, params, xo))
        return abssum / np.abs(den)

    return pointwise(nodes, x, np.ones(nodes.n + 1), off_nodes)


def _golden_max(fn, lo, hi, xtol_rel=1e-6):
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    scale = max(abs(lo), abs(hi), 1e-300)
    while (hi - lo) > xtol_rel * scale:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        if f1 >= best_f:
            best_x, best_f = x1, f1
        if f2 >= best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def lebesgue_constant(nodes: NodeSet, params: ExtParams,
                      grid: GridSpec | None = None) -> LebesgueReport:
    """Estimate the Lebesgue constant: coarse grid scan, then golden-section
    refinement inside the bracketing grid cell.

    The default grid places ``10 * (d + 1)`` points per node subinterval.
    The estimate never falls below the raw grid maximum.
    """
    params.validate(nodes)
    if grid is None:
        grid = GridSpec(count=max(10 * nodes.n, 2),
                        per_subinterval=10 * (params.d + 1))
    weights = PrecomputedWeights(nodes, params)
    pts = grid.points(nodes.a, nodes.b, nodes)
    if pts.size < 10 * nodes.n:
        raise ValueError("lebesgue grid too coarse: need at least 10*n points")
    vals = lebesgue_function(nodes, params, pts, weights)
    k = int(np.argmax(vals))
    best_x, best_f = float(pts[k]), float(vals[k])
    lo = pts[k - 1] if k > 0 else pts[k]
    hi = pts[k + 1] if k + 1 < pts.size else pts[k]
    if hi > lo:
        fn = lambda x: lebesgue_function(nodes, params, x, weights)
        rx, rf = _golden_max(fn, float(lo), float(hi))
        if rf > best_f:
            best_x, best_f = float(rx), float(rf)
    return LebesgueReport(best_f, best_x, grid)


# -- baseline approximants ------------------------------------------------

class ChebyshevBaseline:
    """Polynomial interpolant at Chebyshev points of the second kind,
    evaluated in barycentric form.

    Nodes are ``cos(k*pi/n)`` mapped affinely to ``[a, b]``; the
    barycentric weights alternate in sign and are halved at the endpoints
    (Berrut & Trefethen 2004).
    """

    def __init__(self, f: ReferenceFunction, n):
        n = whole(n)
        if n is None or n < 1:
            raise ValueError("chebyshev baseline needs an integer n >= 1")
        a, b = f.interval
        k = np.arange(n + 1)
        pts = np.cos(k * np.pi / n)[::-1]          # ascending in [-1, 1]
        xs = 0.5 * (a + b) + 0.5 * (b - a) * pts
        xs[0], xs[-1] = a, b
        w = np.where(k % 2 == 0, 1.0, -1.0)
        w[0] *= 0.5
        w[-1] *= 0.5
        self.nodes = NodeSet(xs)
        self.w = w
        self.ys = validate_samples(f(xs), n + 1)

    def __call__(self, x):
        return pointwise(self.nodes, x, self.ys, lambda xo: np.divide(
            *term_sums(self.nodes.xs, self.w, xo, self.ys)))


class CubicSplineBaseline:
    """Not-a-knot C2 cubic spline through the given data.

    Thin wrapper around :class:`scipy.interpolate.CubicSpline`; the class
    exists to give the spline the same node-snapping call contract as the
    other approximants.
    """

    def __init__(self, nodes: NodeSet, ys):
        # imported here: scipy.interpolate is most of the import time of
        # the package, and only this class needs it
        from scipy.interpolate import CubicSpline
        if nodes.n < 3:
            raise ValueError("cubic spline baseline needs n >= 3")
        self.nodes = nodes
        self.ys = validate_samples(ys, nodes.n + 1)
        self._spline = CubicSpline(nodes.xs, self.ys, bc_type="not-a-knot")

    def __call__(self, x):
        return pointwise(self.nodes, x, self.ys, self._spline)


# -- reproducible sample noise --------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Seeded Gaussian perturbation of the samples.

    The stream is fully pinned down for cross-platform reproducibility:
    SplitMix64 supplies 64-bit words from the seed, two words become one
    normal deviate through basic Box-Muller, and nodes consume deviates in
    index order.
    """
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")


def _splitmix64(seed, count):
    k = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + k * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def gaussian_deviates(seed, count):
    """``count`` standard normal deviates; deviate ``i`` uses words
    ``2i, 2i+1`` of the SplitMix64 stream."""
    words = _splitmix64(seed, 2 * count)
    u = ((words >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u1, u2 = u[0::2], u[1::2]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def add_noise(ys, spec: NoiseSpec):
    """Samples plus i.i.d. Gaussian noise, one deviate per node in order."""
    ys = np.asarray(ys, dtype=float)
    if spec.sigma == 0.0:
        return ys.copy()
    return ys + spec.sigma * gaussian_deviates(spec.seed, ys.size)


def equispaced_samples(f: ReferenceFunction, n, noise: NoiseSpec | None = None):
    """``n + 1`` equispaced nodes on ``f``'s interval and ``f`` sampled
    there, with ``noise`` added when given: the data of every sweep."""
    nodes = NodeSet.equispaced(*f.interval, n)
    ys = f(nodes.xs)
    return nodes, ys if noise is None else add_noise(ys, noise)


# -- sweeps -----------------------------------------------------------------

@dataclass(frozen=True)
class ScanCell:
    d: int
    e: int
    linf: Optional[float]
    l1: Optional[float]
    lebesgue: Optional[float]


@dataclass(frozen=True)
class ScanResult:
    """Rectangular (d, e) sweep at fixed n; invalid cells carry ``None``."""
    n: int
    interval: tuple[float, float]
    cells: list[ScanCell]
    seed: Optional[int]
    sigma: Optional[float]

    def cell(self, d, e) -> ScanCell:
        for c in self.cells:
            if c.d == d and c.e == e:
                return c
        raise KeyError((d, e))


def scan_de(f: ReferenceFunction, n, d_range, e_range, grid: GridSpec,
            noise: NoiseSpec | None = None) -> ScanResult:
    """Error and Lebesgue-constant sweep over a rectangle of (d, e).

    Cells with ``e > d`` or ``d > n`` are emitted as sentinels so the
    output stays rectangular. Every valid cell is pure and independent;
    results are assembled in (d, e) order regardless of evaluation order.
    """
    nodes, ys = equispaced_samples(f, n, noise)
    cells = []
    for d in d_range:
        for e in e_range:
            if e > d or d > nodes.n:
                cells.append(ScanCell(d, e, None, None, None))
                continue
            interp = Interpolant(nodes, ys, d, e)
            rep = error_report(interp, f, grid)
            leb = lebesgue_constant(nodes, ExtParams(d, e))
            cells.append(ScanCell(d, e, rep.linf, rep.l1, leb.lambda_max))
    seed, sigma = (noise.seed, noise.sigma) if noise else (None, None)
    return ScanResult(nodes.n, f.interval, cells, seed, sigma)


@dataclass(frozen=True)
class ConvergeRow:
    method: str
    n: int
    d: Optional[int]
    e: Optional[int]
    linf: Optional[float]
    l1: Optional[float]


def converge_n(f: ReferenceFunction, configs, n_list, grid: GridSpec,
               noise: NoiseSpec | None = None) -> list[ConvergeRow]:
    """Error curves versus n for a list of approximant configs.

    Configs are ``("fh", d)``, ``("ext", d, e)``, ``("cheb",)`` or
    ``("spline",)``. Invalid combinations (d > n, spline with n < 3) yield
    sentinel rows; ``d`` and ``e`` are checked as :class:`ExtParams` does.
    """
    rows = []
    for cfg in configs:
        kind = cfg[0]
        if kind not in ("fh", "ext", "cheb", "spline"):
            raise ValueError(f"unknown config kind {kind!r}")
        d = e = None
        if kind in ("fh", "ext"):
            d, e = astuple(ExtParams(cfg[1], cfg[2] if kind == "ext" else 0))
        for n in n_list:
            nodes, ys = equispaced_samples(f, n, noise)
            if (d is not None and d > n) or (kind == "spline" and n < 3):
                rows.append(ConvergeRow(_label(cfg), n, d, e, None, None))
                continue
            if kind == "cheb":
                approx = ChebyshevBaseline(f, n)
            elif kind == "spline":
                approx = CubicSplineBaseline(nodes, ys)
            else:
                approx = Interpolant(nodes, ys, d, e)
            rep = error_report(approx, f, grid)
            rows.append(ConvergeRow(_label(cfg), n, d, e, rep.linf, rep.l1))
    return rows


def _label(cfg):
    if cfg[0] == "fh":
        return f"fh:{cfg[1]}"
    if cfg[0] == "ext":
        return f"ext:{cfg[1]},{cfg[2]}"
    return cfg[0]


# -- the standard Runge benchmark table -----------------------------------

# Classical optimal degrees for 1/(1+x^2) on [-5, 5] at these n, paired
# against the end-corrected interpolant at fixed (d, e) = (min(14, n), 4).
RUNGE_TABLE_ROWS = ((10, 0), (20, 1), (40, 3), (80, 7), (160, 10))


@dataclass(frozen=True)
class RungeTableRow:
    n: int
    d_fh: int
    linf_fh: float
    l1_fh: float
    d_ext: int
    e_ext: int
    linf_ext: float
    l1_ext: float


def runge_error_table(grid: GridSpec | None = None) -> list[RungeTableRow]:
    """Sup and L1 errors of the classical and end-corrected interpolants
    for the Runge function on [-5, 5], at the canonical node counts."""
    grid = grid or GridSpec()
    f = get_function("runge")
    rows = []
    for n, d_fh in RUNGE_TABLE_ROWS:
        nodes, ys = equispaced_samples(f, n)
        rep_fh = error_report(Interpolant(nodes, ys, d_fh, 0), f, grid)
        d_ext, e_ext = min(14, n), 4
        rep_ext = error_report(Interpolant(nodes, ys, d_ext, e_ext), f, grid)
        rows.append(RungeTableRow(n, d_fh, rep_fh.linf, rep_fh.l1,
                                  d_ext, e_ext, rep_ext.linf, rep_ext.l1))
    return rows


# -- CSV output -------------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))
    if v is None:
        return SENTINEL
    v = str(v)
    return f'"{v}"' if "," in v else v


def _csv(header, rows):
    """The header line, then a line per row of one value per column."""
    fields = map(_fmt, chain.from_iterable(rows))
    lines = zip(*[fields] * (header.count(",") + 1))    # a field per column
    return "\n".join([header, *map(",".join, lines)]) + "\n"


def scan_csv(result: ScanResult) -> str:
    return _csv("n,d,e,linf,l1,lebesgue,seed,sigma", (
        (result.n, c.d, c.e, c.linf, c.l1, c.lebesgue, result.seed,
         result.sigma) for c in result.cells))


def converge_csv(rows: list[ConvergeRow],
                 noise: NoiseSpec | None = None) -> str:
    seed, sigma = (noise.seed, noise.sigma) if noise else (None, None)
    return _csv("method,n,d,e,linf,l1,lebesgue,seed,sigma", (
        (r.method, r.n, r.d, r.e, r.linf, r.l1, None, seed, sigma)
        for r in rows))


def runge_table_csv(rows: list[RungeTableRow]) -> str:
    return _csv("n,d_fh,linf_fh,l1_fh,d_ext,e_ext,linf_ext,l1_ext",
                map(astuple, rows))


def lebesgue_csv(n, d, e, report: LebesgueReport) -> str:
    return _csv("n,d,e,lebesgue,argmax_x",
                [(n, d, e, report.lambda_max, report.argmax_x)])


def eval_csv(xs, values) -> str:
    return _csv("x,r", zip(np.asarray(xs, dtype=float).tolist(),
                           np.asarray(values, dtype=float).tolist()))
