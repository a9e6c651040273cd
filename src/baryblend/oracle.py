"""Slow reference forms used to cross-check the fast evaluator.

``blend_form_value`` evaluates the interpolant literally as a blend of
local Lagrange polynomial interpolants with explicit product blending
weights: O(n * d**2) per point, but definitionally direct.

``term_rows`` forms the dense ``points x (n+1)`` matrix of terms, each end
coefficient by loops of its own, and ``dense_values`` adds its columns one
node at a time: the operations and their order are those of the sparse
evaluator, so the two must agree bit for bit. It can count its arithmetic.

``fh_value`` is the classical ``e = 0`` interpolant as one plain loop over
the node weights, a path independent of the end-correction machinery.

``denominator_sign_scans`` evaluates the common-denominator polynomial of
the blend form (the one whose strict positivity rules out real poles) on a
grid, for a range of ``d`` at one ``e``, via products over a node multiset
with the endpoint nodes repeated ``e`` extra times each.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .nodes import NodeSet, real_scalar
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


def _blend_functions(nodes: NodeSet, params: ExtParams, x):
    """Yield ``(phi, i, j)`` per local interpolant, through nodes
    ``i .. j``, with ``phi`` its blending function at the off-node float
    ``x``: lower-end extras, interior, upper-end extras, in that order."""
    params.validate(nodes)
    xs, n = nodes.xs, nodes.n
    d, e = params.d, params.e
    if np.any(x == xs):
        raise ValueError("blend form is singular at a node")
    for i in range(d - e, d):
        s = -1.0 if (d - i) % 2 else 1.0
        yield s / (x - xs[0]) ** (d - i) * _chi(xs, 0, i, x), 0, i
    for i in range(n - d + 1):
        yield _chi(xs, i, i + d, x), i, i + d
    for i in range(n - d + 1, n - d + e + 1):
        yield _chi(xs, i, n, x) / (x - xs[n]) ** (i - n + d), i, n


def blend_form_value(nodes: NodeSet, ys, params: ExtParams, x):
    """Interpolant value at a real scalar off-node ``x``, by the blend form.

    Raises when ``x`` coincides with a node (the blending weights are
    singular there), or is not finite, complex or an array.
    """
    xs, ys, x = nodes.xs, np.asarray(ys, dtype=float), real_scalar(x)
    if not math.isfinite(x):
        raise ValueError("non-finite input")
    num = den = 0.0
    for phi, i, j in _blend_functions(nodes, params, x):
        num += phi * _lagrange(xs, ys, i, j, x)
        den += phi
    return num / den


def _coefs(nodes: NodeSet, params: ExtParams, weights: PrecomputedWeights, x):
    # (C, xo, offmask, snap, ops): C[k, m] = c_k(xo[m]) at the off-node
    # points xo, one contiguous row per node, and the arithmetic per
    # off-node point, counted as the loops below run
    if params != weights.params or not (
            nodes is weights.nodes or np.array_equal(nodes.xs, weights.nodes.xs)):
        raise ValueError("weights were built for other nodes or parameters")
    d, e, n, xs = params.d, params.e, nodes.n, nodes.xs
    x = np.asarray(x, dtype=float)
    snap = nodes.snap_indices(x)
    off = snap < 0
    xo = x[off]
    C = np.broadcast_to(weights.fh[:, None], (n + 1, xo.size)).copy()
    ops = 0
    if e > 0:
        w0 = 1.0 / (xo - nodes.a)
        ops += 2
        for j in range(d):
            acc = np.ones_like(xo)
            for k in range(max(j, d - e) + 1, d):
                acc = 1.0 - (xs[j] - xs[k]) * w0 * acc
                ops += 3
            C[j] += -weights.lower_lead[j] * w0 * acc
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
            C[j] += sign * weights.upper_lead[j - lo] * vn * acc
            ops += 3
    return C, xo, off, snap, ops


def _terms(nodes: NodeSet, params: ExtParams, weights: PrecomputedWeights, x):
    # term_rows' (T, offmask, snap), T empty where every point snaps, and
    # the arithmetic per off-node point
    C, xo, off, snap, ops = _coefs(nodes, params, weights, x)
    for k in range(nodes.n + 1):            # C becomes T, transposed
        C[k] /= xo - nodes.xs[k]
        ops += 2
    return C.T, off, snap, ops


def term_rows(nodes: NodeSet, params: ExtParams, weights: PrecomputedWeights, x):
    """Term rows ``T[m, k] = c_k(x_m)/(x_m - x_k)`` for off-node points.

    Returns ``(T, offmask, snap)``; ``T`` covers only the rows where
    ``offmask`` is true (``None`` if every point snapped to a node). The
    interpolant is ``(T @ ys) / T.sum(axis=1)`` and the basis functions are
    the rows of ``T`` over their sum. ``T`` is dense, ``points x (n+1)``;
    the evaluators never form it, and its end coefficients come from
    loops of its own. ``weights`` for other nodes or parameters are refused.
    """
    T, off, snap, _ = _terms(nodes, params, weights, x)
    return T if T.size else None, off, snap


def dense_values(nodes: NodeSet, ys, params: ExtParams, x, compensated=False,
                 tally=None):
    """Interpolant values at a 1-D array ``x``, :func:`term_rows`' columns
    added node by node; points that snap to a node take its sample.

    ``tally``, a list, gets appended the number of arithmetic operations
    spent on each off-node point, counted as the loops run.
    """
    T, off, snap, ops = _terms(nodes, params,
                               PrecomputedWeights(nodes, params), x)
    out = np.asarray(ys, dtype=float)[snap]
    num, den, cn, cd = (np.zeros(T.shape[0]) for _ in range(4))
    for k in range(nodes.n + 1):
        t = T[:, k]
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
            ops += 9
        else:
            num += v
            den += t
            ops += 3
    out[off] = num / den
    if tally is not None:
        tally.append(ops + 1)          # and the quotient num / den
    return out


def fh_value(interp, x):
    """Value of an ``e = 0`` interpolant at a real finite scalar ``x``, or
    its sample where ``x`` snaps to a node: the classical barycentric sum
    as one loop over the stored node weights."""
    if interp.e != 0:
        raise ValueError("fh_value requires e = 0")
    x = real_scalar(x)
    if not math.isfinite(x):
        raise ValueError("non-finite input")
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


class SignScanReport(NamedTuple):
    """Outcome of a denominator positivity scan."""
    min_value: float          # min over the grid of the normalized denominator
    argmin_x: float
    all_positive: bool
    grid_size: int


def denominator_sign_scans(nodes: NodeSet, e, ds, grid) -> list[SignScanReport]:
    """Scan the blend-form common denominator for sign changes, one report
    for each ``d`` in ``ds`` at one ``e``.

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
    reported, not raised. The prefix and suffix sums depend only on the
    nodes, ``e`` and the grid, so they are formed once for all of ``ds``;
    each term's sign is counted from where ``x`` falls among the sorted
    ``z``.
    """
    ds = [ExtParams(d, e).validate(nodes).d for d in ds]
    e, n = int(e), nodes.n
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a nonempty 1-D array of finite values")
    z = np.concatenate([np.full(e, nodes.a), nodes.xs, np.full(e, nodes.b)])
    # log|x - z|, one factor per row, for the n + 2e + 1 values of z
    # (indices -e .. n+e)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(grid[None, :] - z[:, None]))

    # prefix[t] sums the first t factors, suffix[t] those from t on (built
    # directly: -inf entries would make total-minus-prefix NaN)
    zero = np.zeros((1, grid.size))
    logs_pre = np.concatenate([zero, np.cumsum(logs, axis=0)])
    logs_suf = np.concatenate([np.cumsum(logs[::-1], axis=0)[::-1], zero])
    # z is sorted, so the sign of a term depends only on s = lead - pos:
    # of its first `lead` factors x - z, max(s, 0) are negative, and of
    # those behind, z - x for index lead + d + 1 on, max(-s - d - 1, 0) are
    # negative or zero (a zero factor makes a vanished term)
    pos = z.searchsorted(grid, side="right")
    shift = np.arange(-z.size, z.size)
    reports = []
    for d in ds:
        # mu_i, i = -e .. n-d+e, uses the first i+e factors as (x - z) and
        # those from array index i+e+d+1 on as (z - x); one C-ordered row
        # per term i, so that np.add.reduce over axis 0 adds them in order
        R = n - d + 2 * e + 1
        lead = np.arange(R)[:, None]    # factors taken from the front
        L = logs_pre[:R] + logs_suf[d + 1:d + 1 + R]
        flips = np.maximum(shift, 0) + np.maximum(-shift - d - 1, 0)
        sign = np.where(flips % 2 == 0, 1.0, -1.0).take(lead - pos + z.size)
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
