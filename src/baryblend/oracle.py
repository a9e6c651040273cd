"""Slow reference forms used to cross-check the fast evaluator.

``blend_form_value`` evaluates the interpolant literally as a blend of
local Lagrange polynomial interpolants with explicit product blending
weights: O(n * d**2) per point, but definitionally direct.

``dense_values`` evaluates through the dense ``points x (n+1)`` matrix of
node coefficients, walked one node column at a time: the operations and
their order are those of the sparse evaluator, so the two must agree bit
for bit. It can also count the arithmetic it spends per point.

``fh_value`` is the classical ``e = 0`` interpolant as one plain loop over
the node weights, a path independent of the end-correction machinery.

``denominator_sign_scan`` evaluates the common-denominator polynomial of
the blend form (the one whose strict positivity rules out real poles) on a
grid, via products over a node multiset with the endpoint nodes repeated
``e`` extra times each; ``denominator_sign_scans`` does so for a range of
``d`` at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nodes import NodeSet
from .weights import ExtParams, PrecomputedWeights


def _lagrange(xs, ys, i, j, x):
    s = 0.0
    for k in range(i, j + 1):
        p = ys[k]
        for l in range(i, j + 1):
            if l != k:
                p *= (x - xs[l]) / (xs[k] - xs[l])
        s += p
    return s


def _chi(xs, i, j, x):
    p = -1.0 if i % 2 else 1.0
    for k in range(i, j + 1):
        p /= x - xs[k]
    return p


def blend_form_value(nodes: NodeSet, ys, params: ExtParams, x):
    """Interpolant value at a scalar off-node ``x``, from the blend form.

    Raises when ``x`` coincides with a node (the blending weights are
    singular there).
    """
    params.validate(nodes)
    xs = nodes.xs
    ys = np.asarray(ys, dtype=float)
    n = nodes.n
    d, e = params.d, params.e
    x = float(x)
    if np.any(x == xs):
        raise ValueError("blend form is singular at a node")
    num = den = 0.0
    for i in range(d - e, d):
        s = -1.0 if (d - i) % 2 else 1.0
        phi = s / (x - xs[0]) ** (d - i) * _chi(xs, 0, i, x)
        num += phi * _lagrange(xs, ys, 0, i, x)
        den += phi
    for i in range(n - d + 1):
        c = _chi(xs, i, i + d, x)
        num += c * _lagrange(xs, ys, i, i + d, x)
        den += c
    for i in range(n - d + 1, n - d + e + 1):
        psi = _chi(xs, i, n, x) / (x - xs[n]) ** (i - n + d)
        num += psi * _lagrange(xs, ys, i, n, x)
        den += psi
    return num / den


def blending_weights(nodes: NodeSet, params: ExtParams, x):
    """The normalized blending functions at an off-node ``x``.

    One weight per local interpolant (lower-end extras, interior, upper-end
    extras, in that order); they sum to one.
    """
    params.validate(nodes)
    xs = nodes.xs
    n = nodes.n
    d, e = params.d, params.e
    x = float(x)
    if np.any(x == xs):
        raise ValueError("blend form is singular at a node")
    vals = []
    for i in range(d - e, d):
        s = -1.0 if (d - i) % 2 else 1.0
        vals.append(s / (x - xs[0]) ** (d - i) * _chi(xs, 0, i, x))
    for i in range(n - d + 1):
        vals.append(_chi(xs, i, i + d, x))
    for i in range(n - d + 1, n - d + e + 1):
        vals.append(_chi(xs, i, n, x) / (x - xs[n]) ** (i - n + d))
    vals = np.array(vals)
    return vals / vals.sum()


def dense_values(nodes: NodeSet, ys, params: ExtParams, x, compensated=False,
                 tally=None):
    """Interpolant values at a 1-D array ``x`` through the dense matrix
    ``C[m, j] = c_j(x_m)``; points that snap to a node take its sample.

    ``tally``, a list, gets appended the number of arithmetic operations
    spent on each off-node point, counted as the loops below run.
    """
    d, e = params.d, params.e
    n, xs = nodes.n, nodes.xs
    wts = PrecomputedWeights(nodes, params)
    snap = nodes.snap_indices(x)
    off = snap < 0
    out = np.asarray(ys, dtype=float)[snap]
    xo = x[off]
    C = np.broadcast_to(wts.fh, (xo.size, n + 1)).copy(order="F")
    ops = 0
    if e > 0:
        w0 = 1.0 / (xo - nodes.a)
        ops += 2
        for j in range(d):
            acc = np.ones_like(xo)
            for k in range(max(j, d - e) + 1, d):
                acc = 1.0 - (xs[j] - xs[k]) * w0 * acc
                ops += 3
            C[:, j] += -wts.lower_lead[j] * w0 * acc
            ops += 3
        vn = 1.0 / (xo - nodes.b)
        ops += 2
        lo = n - d + 1
        sign = -1.0 if lo % 2 else 1.0
        for j in range(lo, n + 1):
            acc = np.ones_like(xo)
            for k in range(min(j, n - d + e) - 1, lo - 1, -1):
                acc = 1.0 - (xs[j] - xs[k]) * vn * acc
                ops += 3
            C[:, j] += sign * wts.upper_lead[j - lo] * vn * acc
            ops += 3
    num, den, cn, cd = (np.zeros(xo.size) for _ in range(4))
    for k in range(n + 1):
        t = C[:, k] / (xo - xs[k])
        v = t * ys[k]
        if compensated:
            y_ = v - cn
            s = num + y_
            cn = (s - num) - y_
            num = s
            y_ = t - cd
            s = den + y_
            cd = (s - den) - y_
            den = s
            ops += 11
        else:
            num += v
            den += t
            ops += 5
    out[off] = num / den
    if tally is not None:
        tally.append(ops + 1)          # and the quotient num / den
    return out


def fh_value(interp, x):
    """Value of an ``e = 0`` interpolant at a scalar ``x``, or its sample
    where ``x`` snaps to a node: the classical barycentric sum as one loop
    over the stored node weights."""
    if interp.e != 0:
        raise ValueError("fh_value requires e = 0")
    x = float(x)
    j = interp.nodes.snap_index(x)
    if j is not None:
        return float(interp.ys[j])
    xs, ys, fh = interp.nodes.xs, interp.ys, interp.weights.fh
    num = den = 0.0
    for k in range(interp.nodes.n + 1):
        t = fh[k] / (x - xs[k])
        num += t * ys[k]
        den += t
    return float(num / den)


@dataclass(frozen=True)
class SignScanReport:
    """Outcome of a denominator positivity scan."""
    min_value: float          # min over the grid of the normalized denominator
    argmin_x: float
    all_positive: bool
    grid_size: int


def denominator_sign_scan(nodes: NodeSet, params: ExtParams, grid) -> SignScanReport:
    """Scan the blend-form common denominator for sign changes.

    Clearing the blend of its ``1/(x - x_j)`` singularities multiplies
    numerator and denominator by a polynomial whose roots are the nodes,
    with the two endpoint nodes taken with multiplicity ``e + 1``. The
    resulting denominator is a sum of products

        mu_i(x) = prod_{j=-e}^{i-1} (x - z_j) * prod_{k=i+d+1}^{n+e} (z_k - x)

    over ``i = -e .. n-d+e``, where ``z`` is the node multiset with the
    repeated endpoints (indices -e..n+e). Each normalized grid value is
    ``sum_i mu_i / sum_i |mu_i|``, computed through log-magnitude prefix
    sums so arbitrary ``n`` cannot overflow. Strictly positive values
    everywhere witness the absence of real poles; a nonpositive value is
    reported, not raised.
    """
    return denominator_sign_scans(nodes, params.e, [params.d], grid)[0]


def denominator_sign_scans(nodes: NodeSet, e, ds, grid) -> list[SignScanReport]:
    """:func:`denominator_sign_scan` for each ``d`` in ``ds`` at one ``e``,
    one report per ``d``. The prefix and suffix sums depend only on the
    nodes, ``e`` and the grid, so they are formed once for all of ``ds``.
    """
    ds = [ExtParams(d, e).validate(nodes).d for d in ds]
    e, n = int(e), nodes.n
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a nonempty 1-D array of finite values")
    z = np.concatenate([np.full(e, nodes.a), nodes.xs, np.full(e, nodes.b)])
    m = z.size                      # n + 2e + 1 values, indices -e .. n+e
    diff = grid[None, :] - z[:, None]   # (m, g): x - z, one factor per row
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(diff))

    def sums(a):
        # prefix[t] sums the first t factors, suffix[t] those from t on
        # (built directly: -inf entries would make total-minus-prefix NaN)
        zero = np.zeros((1, grid.size), dtype=int)
        return (np.concatenate([zero, np.cumsum(a, axis=0)]),
                np.concatenate([np.cumsum(a[::-1], axis=0)[::-1], zero]))

    logs_pre, logs_suf = sums(logs)
    negs_pre, negs_suf = sums(diff < 0.0)
    reports = []
    for d in ds:
        # mu_i uses factors z_{-e}..z_{i-1} as (x - z) and z_{i+d+1}..z_{n+e}
        # as (z - x); with array offsets: first i+e factors, last m-(i+e+d+1).
        i_vals = np.arange(-e, n - d + e + 1)
        lead = i_vals + e               # factors taken from the front
        tail_start = lead + d + 1       # array index where the suffix begins
        # one C-ordered row per term i, so that np.add.reduce over axis 0
        # adds the terms in order of i
        L = logs_pre[lead] + logs_suf[tail_start]
        flips = negs_pre[lead] + (m - tail_start)[:, None] - negs_suf[tail_start]
        # (z - x) < 0 exactly where (x - z) > 0, hence the complement count
        sign = np.where(flips % 2 == 0, 1.0, -1.0)
        with np.errstate(invalid="ignore"):
            mags = np.exp(L - L.max(axis=0))
        mags[np.isnan(mags)] = 0.0      # -inf minus -inf: a vanished term
        s = np.add.reduce(sign * mags, axis=0)
        norm = np.add.reduce(mags, axis=0)
        vals = s / norm
        k = int(np.argmin(vals))
        reports.append(SignScanReport(float(vals[k]), float(grid[k]),
                                      bool(np.all(vals > 0.0)), grid.size))
    return reports
