"""Rational interpolants blended from local polynomials, with optional
extra low-degree interpolants at the interval ends.

The evaluator works in a barycentric-like form: every node ``k`` carries a
coefficient ``c_k(x)`` (a constant node weight plus x-dependent end
corrections), and the interpolant is the ratio

    r(x) = sum_k t_k(x) y_k  /  sum_k t_k(x),    t_k(x) = c_k(x) / (x - x_k).

With ``e = 0`` the corrections vanish and this is the classical
Floater-Hormann form (Floater & Hormann 2007, Numer. Math. 107). Only the
``d`` nodes at each end carry corrections, by one nested Horner recurrence
that each end runs counted from its endpoint inward (:func:`zeta_eta`) on
operands stored once per :class:`PrecomputedWeights`, O(e) arithmetic per
node, so one evaluation costs O(n + d*e).

One kernel, :func:`term_sums`, forms the terms from the points and one
:class:`PrecomputedWeights` and sums them; values, basis functions and the
Lebesgue function are reductions of its sums. It runs the recurrence in
three forms, each the fastest measured in its regime, and every form takes
about ``32768 / m`` nodes a step at ``m`` points, by the one budget of
``_BLOCK = 32768`` doubles a step that the weights build reads too, on
chunks of at most 32,768 points from :func:`pointwise`: a single point
takes a short path of its own, off the node blocks, which runs each end
node's chain on Python floats, where numpy's fixed cost per call would
dominate, and forms and sums 1-D rows of up to 32,768 terms in a few numpy
calls; a batch of ``2 <= m < 2048`` points (16 nodes a step or more) takes
node blocks and runs an end's ``d`` recurrences side by side (a chain per
node was 5-7x slower at 32 points) on the whole batch, in about
``3 * d * m`` doubles past the budget (point slices measured 0.55-0.90x
at d >= 50); a larger or a compensated batch sweeps the nodes with its
running sums in place, interior nodes in blocks (one a step from 8,193
points on) and each end node a step of its own, its row formed by its own
chain just before that step. Every path adds the terms strictly left to
right in node order from 0.0 (a 1-D row with the sequential
``np.add.accumulate``, which numpy would sum pairwise), so the scalar and
vectorized paths produce bit-identical results. Optional two-term (Kahan)
compensation is available behind a flag.

Around the kernel, a small request pays a few numpy calls, not a few per
node: :func:`pointwise` snaps a chunk against the snap radii that
:class:`~baryblend.nodes.NodeSet` stores at build, and hands a chunk in
which no point snaps to the kernel whole, with no masks (and returns the
kernel's values as they are when that chunk is the whole request); a
single point gets its two sums as numpy scalars and returns a float.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .nodes import (NodeSet, freeze, read_only, real_array, real_scalar,
                    validate_samples, whole)
from .oracle import term_rows  # noqa: F401  (the span tracer patches it here)
from .weights import _BLOCK, ExtParams, PrecomputedWeights

# A batch of m points takes about _BLOCK // m nodes per step of the kernel
# (a single point up to _BLOCK), and pointwise hands it at most _BLOCK points
# at once. Node blocks run while a step holds 16 nodes or more; from
# _SWEEP_MIN points on the sweep, with its running sums updated in place, is
# faster, and takes that many interior nodes a step, or one where that is 3
# or fewer (measured on a 2-vCPU Xeon, AVX-512, numpy 2.4, under term_sums'
# ufunc buffer of _BUFSIZE elements, a resource of its own).
_SWEEP_MIN = _BLOCK // 16
_BUFSIZE = 768


class EvalOutcome(NamedTuple):
    """Result of a single-point evaluation.

    ``at_node`` is the node index when the abscissa snapped to a node (the
    value is then the corresponding sample, exactly), else ``None``.
    """
    value: float
    at_node: Optional[int]


def _ends(weights: PrecomputedWeights, x, lists=False):
    # each end's stored operands, as arrays or as tuples of floats, once the
    # points x (a 1-D array or a list) are known to hold no endpoint
    if weights.nodes.a in x or weights.nodes.b in x:
        raise ValueError("evaluation at an endpoint: snap to the node instead")
    return weights.end_lists if lists else weights.ends


def zeta_eta(weights: PrecomputedWeights, x):
    """End-correction functions of ``weights`` at the points ``x`` (1-D),
    for ``e >= 1`` (with ``e = 0`` there are no corrections).

    Returns ``(zeta, eta)``, each of shape ``(d, x.size)``: ``zeta[j]``
    for nodes ``j = 0 .. d-1`` and ``eta[k]`` for nodes
    ``j = n-d+1+k .. n``. The values carry the same common factor as the
    stored node weights.

    Both ends run one Horner recurrence, each indexed from its endpoint
    inward (the upper end's node ``n - i`` is its node ``i``): node ``i``
    takes the steps ``k = max(i+1, d-e+1) .. d-1`` upward, each
    ``z = 1 - z * ((x_i - x_k) * p)`` from ``z = 1``, with
    ``p = 1 / (x - endpoint)``, and ends with ``z * (l_i * p)``, ``l_i`` its
    signed lead, from the operands stored in ``weights.ends``. Here the
    ``d`` nodes of one end run side by side: each step updates the nodes
    whose recurrence contains it. ``eta`` is the upper end, reversed.

    ``x`` must not equal an endpoint (powers of ``x - x_0`` and
    ``x - x_n`` are formed); callers snap node-coincident points first.
    """
    d, e = weights.params.d, weights.e
    k0 = d - e + 1                          # the first step
    out = []
    for end, xe, lead, _ in _ends(weights, x):
        p = 1.0 / (x - end)
        z = lead[:, None] * p
        if k0 < d:
            xe, q = xe[:, None], z
            z = np.empty_like(q)
            # the first step is 1 - g, as 1.0 * g == g
            np.subtract(1.0, (xe[:k0] - xe[k0]) * p, out=z[:k0])
            z[k0:] = 1.0
            for k in range(k0 + 1, d):
                acc = z[:k]
                acc *= (xe[:k] - xe[k]) * p
                np.subtract(1.0, acc, out=acc)
            z *= q
        out.append(z)
    return out[0], out[1][::-1]


def _end_rows(weights: PrecomputedWeights, x, h, g):
    # (k0, k1, c) in node order for the sweep, c the coefficients of the
    # nodes k0 .. k1-1: an end node's row c_k(x), formed by zeta_eta's steps
    # for that node alone in one row per end reused from node to node; up
    # to h interior nodes' fh as a column, or a lone node's as a float;
    # g is scratch
    n, w, e = weights.nodes.n, weights.fh, weights.e
    d = weights.params.d if e else 0
    sides = _ends(weights, x, lists=True) if d else ()

    def rows(js):
        # an end's row and p = 1/(x - endpoint) live while js holds its nodes
        chains = {s: (1.0 / (x - end), xe, lead, np.empty(x.size))
                  for s, (end, xe, lead, _) in enumerate(sides)
                  if (js[0], n - js[-1])[s] < d}
        for j in js:
            c = float(w[j])             # a node in both ends: lower first
            for s, i in ((0, j), (1, n - j)):
                if i >= d:
                    continue
                p, xe, lead, z = chains[s]
                # z = 1 - z * g, g = p * (x_i - x_k), for the steps k from
                # z = 1 (the first step is 1 - g, as 1.0 * g == g)
                ks = range(max(i + 1, d - e + 1), d)
                if ks:
                    np.multiply(p, xe[i] - xe[ks[0]], out=z)
                    np.subtract(1.0, z, out=z)
                    for k in ks[1:]:
                        z *= np.multiply(p, xe[i] - xe[k], out=g)
                        np.subtract(1.0, z, out=z)
                    z *= np.multiply(p, lead[i], out=g)
                else:
                    np.multiply(p, lead[i], out=z)
                c = np.add(z, c, out=z)
            yield j, j + 1, c

    yield from rows(range(d))
    lo = n + 1 - d
    for k0 in range(d, lo, h):
        k1 = min(k0 + h, lo)
        yield k0, k1, w[k0:k1, None] if k1 - k0 > 1 else w.item(k0)
    yield from rows(range(max(lo, d), n + 1))


def _point_coefs(weights: PrecomputedWeights, x):
    # the end coefficients c_k = fh[k] + correction at the float x, as two
    # lists: each end node's chain of zeta_eta's steps in order on the stored
    # float operands, whose + - * / round as numpy's do; a node in both ends
    # is right only in the upper list, which term_sums writes last
    d, e = weights.params.d, weights.e
    lo = weights.nodes.n + 1 - d            # nodes lo .. d-1 are in both ends
    k0 = d - e + 1                          # the first step
    out = []
    for end, xe, lead, base in _ends(weights, [x], lists=True):
        if out:     # the upper end: a node in both adds to its lower value
            base = [*base[:lo], *out[0][lo:][::-1]]
        p, tail, coefs = 1.0 / (x - end), xe[k0:], []
        for i, xi in enumerate(xe):
            z = 1.0
            for xk in tail if i < k0 else xe[i + 1:]:
                z = 1.0 - z * ((xi - xk) * p)
            coefs.append(z * (lead[i] * p) + base[i])
        out.append(coefs)
    return out[0], out[1][::-1]


def _add(total, v, comp, y, s):
    # total += v in place, Kahan-compensated by the array comp: the steps
    # y = v - comp, s = total + y, comp = (s - total) - y in rows y and s
    np.subtract(v, comp, out=y)
    np.add(total, y, out=s)
    np.subtract(s, total, out=comp)
    comp -= y
    total[...] = s


def _sweep(weights, x, ys, col, compensated):
    # term_sums from _SWEEP_MIN points on, and on compensated batches. The
    # running (num, den) are one stacked array, of which a basis (col given)
    # adds only den. Up to h interior nodes take one step: three numpy calls
    # fill the rows (v_k, t_k) of an (h, 2, m) block, and each row is added
    # to the sums in node order. An end node, or every node where a block
    # would hold 3 or fewer, takes 1-D rows and Python-float operands, which
    # cost less per numpy call than 2-D views and (1, 1) columns.
    xs, m = weights.nodes.xs, x.size
    h = min(_BLOCK // max(m, 1), xs.size)
    h = h if h > 3 else 1
    block = np.empty((h, 2, m))
    acc = np.zeros((2, m))
    p = 0 if col is None else 1
    sums = acc[p:]
    if compensated:     # the compensation terms, and _add's scratch rows
        comp, y, s = (np.zeros_like(sums) for _ in range(3))
    one = (*block[0], (block[0, p:],))
    for k0, k1, c in _end_rows(weights, x, h, block[0, 1]):
        r = k1 - k0
        vk, tk, rows = one if r == 1 else (*block[:r].transpose(1, 0, 2),
                                           block[:r, p:])
        np.subtract(x, xs.item(k0) if r == 1 else xs[k0:k1, None], out=tk)
        np.divide(c, tk, out=tk)
        if col is not None:
            if k0 <= col < k1:
                acc[0] = block[col - k0, 1]
        elif ys is None:
            np.absolute(tk, out=vk)
        else:
            np.multiply(tk, ys.item(k0) if r == 1 else ys[k0:k1, None],
                        out=vk)
        if not compensated:
            for row in rows:
                sums += row
        else:
            for row in rows:
                _add(sums, row, comp, y, s)
    return acc[0], acc[1]


def term_sums(weights, x, ys=None, col=None, compensated=False):
    """Node sums of the terms ``t_k = c_k / (x - x_k)`` at the off-node
    points ``x`` (1-D), added left to right in node order from 0.0.

    ``c_k`` is the constant ``fh[k]`` of ``weights`` (a
    :class:`PrecomputedWeights`, or any object with its ``nodes``, ``fh``
    and ``e``), except at the ``d`` nodes at each end when ``e >= 1``, where
    :func:`zeta_eta`'s row is added. Returns ``(num, den)`` with
    ``den = sum_k t_k`` and ``num = sum_k t_k ys[k]``. With ``ys=None``,
    ``num`` is ``sum_k |t_k|`` instead; with ``col=j`` it is ``t_j``.
    ``compensated`` adds every sum with two-term (Kahan) compensation.

    The sums are arrays of ``m`` values, or numpy scalars for a single
    point. Every path takes up to ``h = _BLOCK // m`` nodes a step. A
    single point (compensated too) takes :func:`_point_sums`: one 1-D row
    of coefficients, its end values from the float chains of
    :func:`_point_coefs`, divided by ``x - x_k`` in place, and added with
    the sequential ``np.add.accumulate``. A batch of ``m < _SWEEP_MIN``
    points takes node blocks (:func:`_blocks`): a few ufuncs form the
    ``(h, m)`` block of terms under a row holding the running sums, and
    ``np.add.reduce`` adds its rows in node order. A larger batch, or a
    compensated one of 2 points or more, is swept (:func:`_sweep`): it
    updates its running sums in place, up to ``h`` interior nodes a step,
    and each end node a step of its own, its row from :func:`_end_rows`.
    Each sum sees the same adds in the same order.
    """
    m = x.size
    if m == 1:
        return _point_sums(weights, x, ys, col, compensated)
    sweep = compensated or m >= _SWEEP_MIN
    if not sweep and m <= _BUFSIZE // 4:
        return _blocks(weights, x, ys, col)
    # numpy (2.4) passes a 2-D broadcast whose rows fill a quarter of its
    # ufunc buffer (8,192 elements) or less through that buffer, at 2-4x
    # the time per element; a buffer of _BUFSIZE (numpy wants a multiple of
    # 16) keeps the rows of a batch of more than _BUFSIZE // 4 points out
    # of it, on both batch paths. Node blocks of shorter rows go through
    # either buffer at one speed, and skip the two calls that set it (about
    # 2.5 us); the sweep keeps it (3% faster at 128 compensated points).
    old = np.setbufsize(_BUFSIZE)
    try:
        if sweep:
            return _sweep(weights, x, ys, col, compensated)
        return _blocks(weights, x, ys, col)
    finally:
        np.setbufsize(old)


def _blocks(weights, x, ys, col):
    # term_sums in node blocks, for a batch under _SWEEP_MIN points: row 0
    # of each block carries the running sums over the earlier nodes, and
    # np.add.reduce adds the rows of a C-contiguous 2-D block one by one
    xs, w = weights.nodes.xs, weights.fh
    m, size = x.size, xs.size
    nl = weights.params.d if weights.e else 0
    lo = size - nl                      # end nodes: k < nl and k >= lo
    h = min(_BLOCK // max(m, 1), size)
    if nl:
        # c_k = fh[k] + correction; a node in both ends is right in upper
        lower, upper = zeta_eta(weights, x)
        both = max(nl - lo, 0)
        lower += w[:nl, None]
        upper[:both] += lower[nl - both:]
        upper[both:] += w[lo + both:, None]
    T, V = np.empty((2, h + 1, m))
    T[0] = V[0] = 0.0
    diff = np.empty((h, m))
    for k0 in range(0, size, h):
        k1 = min(k0 + h, size)
        r = k1 - k0
        dk = np.subtract(x, xs[k0:k1, None], out=diff[:r])
        t = np.divide(w[k0:k1, None], dk, out=T[1:r + 1])
        if k0 < nl:
            s = min(k1, nl) - k0
            np.divide(lower[k0:k1], dk[:s], out=t[:s])
        if k1 > lo:
            s = max(k0, lo) - k0
            np.divide(upper[k0 + s - lo:k1 - lo], dk[s:], out=t[s:])
        if col is None:
            v = V[1:r + 1]
            if ys is None:
                np.absolute(t, out=v)
            else:
                np.multiply(t, ys[k0:k1, None], out=v)
            V[0] = np.add.reduce(V[:r + 1], axis=0)
        elif k0 <= col < k1:
            V[0] = t[col - k0]
        T[0] = np.add.reduce(T[:r + 1], axis=0)
    return V[0], T[0]


def _point_sums(weights, x, ys, col, compensated):
    # term_sums at one point: the rows (v_k, t_k) of up to _BLOCK nodes a
    # step, behind a slot 0 that carries the running sums, the end
    # coefficients from _point_coefs' float chains; each row is added by
    # the sequential np.add.accumulate, or by Kahan steps on floats. The
    # sums stay numpy scalars: num / den at den == 0 then gives inf or nan,
    # as in a batch, not a ZeroDivisionError.
    xs, w = weights.nodes.xs, weights.fh
    size, x = xs.size, x.item()
    nl = weights.params.d if weights.e else 0
    lo = size - nl                      # end nodes: k < nl and k >= lo
    if nl:
        lower, upper = _point_coefs(weights, x)
    comp = [0.0, 0.0]
    for k0 in range(0, size, _BLOCK):
        k1 = min(k0 + _BLOCK, size)
        rows = np.zeros((2, k1 - k0 + 1))
        if k0:
            rows[:, 0] = sums
        t = rows[1, 1:]
        t[...] = w[k0:k1]               # c_k, then t_k = c_k / (x - x_k)
        if k0 < nl:
            t[:nl - k0] = lower[k0:k1]
        if k1 > lo:
            j = max(k0, lo) - k0
            t[j:] = upper[k0 + j - lo:k1 - lo]
        np.divide(t, np.subtract(x, xs[k0:k1]), out=t)
        if col is not None:             # a basis keeps t_j; v stays 0
            if k0 <= col < k1:
                tj = t[col - k0]
        elif ys is None:
            np.absolute(t, out=rows[0, 1:])
        else:
            np.multiply(t, ys[k0:k1], out=rows[0, 1:])
        if not compensated:
            sums = np.add.accumulate(rows, axis=1)[:, -1]
            continue
        sums = np.empty(2)
        for i, (total, *values) in enumerate(rows.tolist()):
            c = comp[i]
            for v in values:            # _add's steps, on floats
                y = v - c
                s = total + y
                c = (s - total) - y
                total = s
            sums[i], comp[i] = total, c
    return (sums[0] if col is None else tj), sums[1]


def _point(nodes: NodeSet, x, at_nodes, off_nodes):
    """Evaluate at one real scalar ``x``: ``(at_nodes[j], j)`` when ``x``
    snaps to node ``j``, else ``(off_nodes(x as a one-point block), None)``.
    Anything else, a complex number or an array among it, is refused."""
    if not isinstance(x, float):        # a float passes as it is
        x = real_scalar(x)
    if not math.isfinite(x):
        raise ValueError("non-finite input")
    j = nodes.snap_index(x)
    if j is not None:
        return float(at_nodes[j]), j
    # off_nodes gives a numpy scalar, or a one-point array (the spline)
    return off_nodes(np.array([x])).item(), None


def pointwise(nodes: NodeSet, x, at_nodes, off_nodes):
    """Evaluate at a scalar or an array ``x``, in chunks of _BLOCK points.

    A point that snaps to node ``j`` gets ``at_nodes[j]``; the other points
    of a chunk get ``off_nodes(points)``. Returns a float for scalar ``x``,
    which :func:`_point` evaluates, else an array shaped like ``x``.
    """
    xv = real_array(x)
    if xv.ndim == 0:
        return _point(nodes, xv.item(), at_nodes, off_nodes)[0]
    flat = xv.ravel()
    if not np.isfinite(flat).all():
        raise ValueError("non-finite input")
    out = np.empty(flat.size)
    for s in range(0, flat.size, _BLOCK):
        block = flat[s:s + _BLOCK]
        res = out[s:s + block.size]
        snap = nodes.snap_indices(block)
        if snap.max() < 0:              # no point snaps
            if block.size == flat.size:     # one chunk: no copy
                return off_nodes(block).reshape(xv.shape)
            res[...] = off_nodes(block)
            continue
        off = snap < 0
        np.take(at_nodes, snap, out=res)
        if off.any():
            res[off] = off_nodes(block[off])
    return out.reshape(xv.shape)


class Interpolant:
    """Evaluable rational interpolant through ``(x_j, y_j)``.

    Parameters
    ----------
    nodes : NodeSet
    ys : array_like
        Samples, one per node.
    d : int
        Local polynomial degree, ``0 <= d <= n``.
    e : int, optional
        Number of extra reduced-degree local interpolants blended in at
        each end of the interval, ``0 <= e <= d``. ``e = 0`` gives the
        classical Floater-Hormann interpolant of degree ``d``.
    compensated : bool, optional
        Accumulate numerator and denominator with two-term (Kahan)
        compensation. Off by default.

    Notes
    -----
    The interpolant has no poles on the real line and no unattainable
    points; it reproduces polynomials of degree up to ``d - e``.
    Evaluation at a point within rounding distance of a node returns the
    sample value exactly. Instances are immutable after construction
    (assigning an attribute raises ``AttributeError``) and safe to
    evaluate concurrently.
    """

    __setattr__ = __delattr__ = read_only

    def __init__(self, nodes: NodeSet, ys, d, e=0, compensated=False):
        if not isinstance(nodes, NodeSet):
            nodes = NodeSet(nodes)
        ys = validate_samples(ys, nodes.n + 1)
        params = ExtParams(d, e)
        freeze(self, nodes=nodes, ys=ys, params=params,
               weights=PrecomputedWeights(nodes, params),
               compensated=bool(compensated))

    @classmethod
    def from_function(cls, nodes, f, d, e=0, **kw):
        """Interpolant through ``f`` sampled at the nodes."""
        if not isinstance(nodes, NodeSet):
            nodes = NodeSet(nodes)
        return cls(nodes, f(nodes.xs), d, e, **kw)

    @property
    def d(self):
        return self.params.d

    @property
    def e(self):
        return self.params.e

    # -- scalar paths ---------------------------------------------------

    def eval(self, x) -> EvalOutcome:
        """Evaluate at a scalar ``x``.

        Snaps to the nearest node within the rounding tolerance; otherwise
        computes the barycentric-like ratio in O(n + d*e) arithmetic.
        """
        return EvalOutcome(*_point(self.nodes, x, self.ys, self._values))

    # -- vectorized paths -------------------------------------------------

    def __call__(self, x):
        """Evaluate at a scalar or array of points."""
        return pointwise(self.nodes, x, self.ys, self._values)

    def _values(self, x):
        num, den = term_sums(self.weights, x, self.ys,
                             compensated=self.compensated)
        return num / den

    def basis(self, j, x):
        """The ``j``-th basis function: the interpolant of the unit sample
        at node ``j``, an integral index in ``0 .. n``. Scalar or array
        ``x``."""
        n, k = self.nodes.n, whole(j)
        if k is None or not 0 <= k <= n:
            raise IndexError(f"node index out of range: {j}")
        unit = np.zeros(n + 1)
        unit[k] = 1.0

        def off_nodes(xo):
            tj, den = term_sums(self.weights, xo, col=k)
            return tj / den

        return pointwise(self.nodes, x, unit, off_nodes)

