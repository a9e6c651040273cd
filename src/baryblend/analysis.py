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
from numbers import Real
from typing import Callable, Optional

import numpy as np

from .interpolant import Interpolant, pointwise, term_sums
from .nodes import NodeSet, real_array, validate_samples, whole
from .oracle import term_rows  # noqa: F401  (the span tracer patches it here)
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
        return self.fn(real_array(x))


_FUNCTIONS = {"runge": ReferenceFunction("runge", lambda x: 1.0 / (1.0 + x * x),
                                         (-5.0, 5.0))}


def get_function(spec, interval=None):
    """Look up a reference function.

    ``spec`` is a built-in name (``runge``), or ``poly:c0,c1,...`` for a
    polynomial with the given ascending coefficients. ``interval``
    overrides the default. Any other function is a
    :class:`ReferenceFunction` built directly.
    """
    if spec.startswith("poly:"):
        terms = spec[5:].split(",")
        if not all(t.strip() for t in terms):
            raise ValueError(f"empty coefficient in {spec!r}")
        poly = np.polynomial.Polynomial([float(t) for t in terms])
        ref = ReferenceFunction(spec, lambda x: poly(x), (-1.0, 1.0))
    else:
        try:
            ref = _FUNCTIONS[spec]
        except KeyError:
            raise ValueError(f"unknown function {spec!r}; "
                             f"known: {sorted(_FUNCTIONS)}") from None
    if interval is not None:
        ref = ReferenceFunction(ref.name, ref.fn,
                                (float(interval[0]), float(interval[1])))
    if not -math.inf < ref.interval[0] < ref.interval[1] < math.inf:
        raise ValueError("invalid interval: need finite a < b")
    return ref


# -- grids ------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid over an interval, endpoints included.

    ``per_subinterval``, when set, switches to a node-relative grid with
    that many uniform points per node gap (used by the Lebesgue-constant
    search), which :meth:`points` refuses without the nodes or on another
    interval. Both must be integral (``3.0`` counts as ``3``).
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
        if self.per_subinterval is None:
            return np.linspace(a, b, self.count)
        if nodes is None:
            raise ValueError("a per_subinterval grid needs the nodes")
        if (a, b) != (nodes.a, nodes.b):
            raise ValueError("a per_subinterval grid spans its nodes' interval")
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
    accepting an array of points; a node-relative grid is refused.
    """
    pts = grid.points(*f.interval)
    err = np.abs(np.asarray(approx(pts)) - f(pts))
    terms = np.diff(pts) * (err[1:] + err[:-1]) / 2.0
    return ErrorReport(float(err.max()), math.fsum(memoryview(terms)))


# -- Lebesgue function and constant --------------------------------------

@dataclass(frozen=True)
class LebesgueReport:
    """Estimated Lebesgue constant and where it was attained."""
    lambda_max: float
    argmax_x: float


def lebesgue_function(nodes: NodeSet, params: ExtParams, x):
    """Sum of absolute basis-function values at ``x`` (scalar or array).

    Equals 1 exactly at nodes; at least 1 everywhere (the basis functions
    sum to one).
    """
    return _lebesgue_evaluator(PrecomputedWeights(nodes, params))(x)


def _lebesgue_evaluator(weights: PrecomputedWeights):
    nodes, at_nodes = weights.nodes, np.ones(weights.nodes.n + 1)

    def off_nodes(xo):
        abssum, den = term_sums(weights, xo)
        return abssum / np.abs(den)

    return lambda x: pointwise(nodes, x, at_nodes, off_nodes)


def _golden_max(fn, lo, hi):
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    scale = max(abs(lo), abs(hi), 1e-300)
    while (hi - lo) > 1e-6 * scale:
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


def lebesgue_constant(nodes: NodeSet, params: ExtParams) -> LebesgueReport:
    """Estimate the Lebesgue constant: a scan of the grid of ``10 * (d + 1)``
    points per node subinterval, then golden-section refinement inside the
    bracketing grid cell, through one evaluator on one weights build. The
    estimate never falls below the grid maximum.
    """
    return _lebesgue_constant(PrecomputedWeights(nodes, params))


def _lebesgue_constant(weights: PrecomputedWeights) -> LebesgueReport:
    nodes, fn = weights.nodes, _lebesgue_evaluator(weights)
    grid = GridSpec(2, per_subinterval=10 * (weights.params.d + 1))
    pts = grid.points(nodes.a, nodes.b, nodes)
    vals = fn(pts)
    k = int(np.argmax(vals))
    best_x, best_f = float(pts[k]), float(vals[k])
    lo = pts[k - 1] if k > 0 else pts[k]
    hi = pts[k + 1] if k + 1 < pts.size else pts[k]
    if hi > lo:
        rx, rf = _golden_max(fn, float(lo), float(hi))
        if rf > best_f:
            best_x, best_f = float(rx), float(rf)
    return LebesgueReport(best_f, best_x)


# -- baseline approximants ------------------------------------------------

class ChebyshevBaseline:
    """Polynomial interpolant at Chebyshev points of the second kind,
    evaluated in barycentric form.

    Nodes are ``cos(k*pi/n)`` mapped affinely to ``[a, b]``; the
    barycentric weights alternate in sign and are halved at the endpoints
    (Berrut & Trefethen 2004). ``noise``, when given, is added to the
    samples in node index order, as :func:`equispaced_samples` adds it.
    """

    e = 0       # no end corrections: term_sums reads nodes and fh only

    def __init__(self, f: ReferenceFunction, n, noise: NoiseSpec | None = None):
        n = whole(n)
        if n is None or n < 1:
            raise ValueError("chebyshev baseline needs an integer n >= 1")
        a, b = f.interval
        k = np.arange(n + 1)
        pts = np.cos(k * np.pi / n)[::-1]          # ascending in [-1, 1]
        xs = 0.5 * (a + b) + 0.5 * (b - a) * pts
        xs[0], xs[-1] = a, b
        self.nodes = NodeSet(xs)
        self.fh = np.where(k % 2 == 0, 1.0, -1.0)
        self.fh[0] *= 0.5
        self.fh[-1] *= 0.5
        ys = f(xs) if noise is None else add_noise(f(xs), noise)
        self.ys = validate_samples(ys, n + 1)

    def __call__(self, x):
        return pointwise(self.nodes, x, self.ys, lambda xo: np.divide(
            *term_sums(self, xo, self.ys)))


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
        if not isinstance(nodes, NodeSet):
            nodes = NodeSet(nodes)
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

    SplitMix64 supplies 64-bit words from the seed, two words become one
    normal deviate through basic Box-Muller, and nodes consume deviates in
    index order. Box-Muller calls ``np.log`` and ``np.cos``, whose last bit
    numpy does not promise across CPUs (on an AVX-512 host its SIMD
    ``np.log`` and ``math.log`` differ on about 0.3% of uniforms), so the
    deviates are reproducible on one CPU family, not across them. The seed
    must be integral (``3.0`` counts as ``3``).
    """
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.sigma, Real) or not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be a finite number >= 0")
        seed = whole(self.seed)
        if seed is None:
            raise ValueError("noise seed must be an integer")
        object.__setattr__(self, "seed", seed)


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
    ys = real_array(ys)
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
    cells: list[ScanCell]
    seed: Optional[int]
    sigma: Optional[float]


def scan_de(f: ReferenceFunction, n, d_range, e_range, grid: GridSpec,
            noise: NoiseSpec | None = None) -> ScanResult:
    """Error and Lebesgue-constant sweep over a rectangle of (d, e).

    Cells with ``e > d`` or ``d > n`` are emitted as sentinels so the
    output stays rectangular; a negative or non-integral ``d`` or ``e``,
    or an empty range, is refused. Every valid cell is pure and independent,
    its interpolant and Lebesgue constant share one weights build, and the
    results are assembled in (d, e) order regardless of evaluation order.
    """
    ds, es = [whole(d) for d in d_range], [whole(e) for e in e_range]
    if not (ds and es) or None in ds + es or min(ds + es) < 0:
        raise ValueError("d and e must be non-empty ranges of integers >= 0")
    nodes, ys = equispaced_samples(f, n, noise)
    cells = []
    for d in ds:
        for e in es:
            if e > d or d > nodes.n:
                cells.append(ScanCell(d, e, None, None, None))
                continue
            interp = Interpolant(nodes, ys, d, e)
            rep = error_report(interp, f, grid)
            leb = _lebesgue_constant(interp.weights)
            cells.append(ScanCell(d, e, rep.linf, rep.l1, leb.lambda_max))
    seed, sigma = (noise.seed, noise.sigma) if noise else (None, None)
    return ScanResult(nodes.n, cells, seed, sigma)


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
    ``("spline",)``; a config of another length is refused. Invalid
    combinations (d > n, spline with n < 3) yield sentinel rows; ``d`` and
    ``e`` are checked as :class:`ExtParams` does. ``noise`` perturbs the
    samples of every row, Chebyshev rows included.
    """
    n_list = [whole(n) for n in n_list]
    if None in n_list or min(n_list, default=1) < 1:
        raise ValueError("n values must be integers >= 1")
    rows = []
    for cfg in configs:
        kind = cfg[0] if cfg else None
        if len(cfg) != {"fh": 2, "ext": 3, "cheb": 1, "spline": 1}.get(kind):
            raise ValueError(f"unknown config {cfg!r}; expected ('fh', d), "
                             "('ext', d, e), ('cheb',) or ('spline',)")
        d = e = None
        if kind in ("fh", "ext"):
            d, e = astuple(ExtParams(cfg[1], cfg[2] if kind == "ext" else 0))
        for n in n_list:
            if (d is not None and d > n) or (kind == "spline" and n < 3):
                rows.append(ConvergeRow(_label(cfg), n, d, e, None, None))
                continue
            if kind == "cheb":
                approx = ChebyshevBaseline(f, n, noise)
            else:
                nodes, ys = equispaced_samples(f, n, noise)
                approx = (CubicSplineBaseline(nodes, ys) if kind == "spline"
                          else Interpolant(nodes, ys, d, e))
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


def runge_error_table(grid: GridSpec) -> list[RungeTableRow]:
    """Sup and L1 errors of the classical and end-corrected interpolants
    for the Runge function on [-5, 5], at the canonical node counts."""
    f = get_function("runge")
    rows = []
    for n, d_fh in RUNGE_TABLE_ROWS:
        fh, ext = converge_n(f, [("fh", d_fh), ("ext", min(14, n), 4)], [n], grid)
        rows.append(RungeTableRow(n, d_fh, fh.linf, fh.l1,
                                  ext.d, ext.e, ext.linf, ext.l1))
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
