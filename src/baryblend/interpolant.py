"""Rational interpolants blended from local polynomials, with optional
extra low-degree interpolants at the interval ends.

The evaluator works in a barycentric-like form: every node ``k`` carries a
coefficient ``c_k(x)`` (a constant node weight plus x-dependent end
corrections), and the interpolant is the ratio

    r(x) = sum_k t_k(x) y_k  /  sum_k t_k(x),    t_k(x) = c_k(x) / (x - x_k).

With ``e = 0`` the corrections vanish and this is the classical
Floater-Hormann form (Floater & Hormann 2007, Numer. Math. 107). Only the
``d`` nodes at each end carry corrections, evaluated in O(e) arithmetic
each by a nested Horner recurrence, so one evaluation costs O(n + d*e)
after precomputation.

One kernel, :func:`term_sums`, forms the terms and sums them; values, basis
functions and the Lebesgue function are reductions of its sums. It walks
the nodes in blocks, carrying the running sums of every point from one
block to the next. A batch of ``m`` points under a fixed size takes about
``8192 / m`` nodes per block, so that it costs a fixed number of numpy
calls per block, not per node; ``np.add.reduce`` over axis 0 adds the rows
of a block in node order. A single point is a batch of one, whose lone
column numpy would sum pairwise, so it reduces with the sequential
``np.add.accumulate`` instead. A larger batch takes one node per step and
updates its running sums in place. Every path adds the terms strictly left
to right in node order, starting from 0.0, so the scalar and vectorized
paths produce bit-identical results. Optional two-term (Kahan)
compensation is available behind a flag; a compensated batch of any size
takes one node per step.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .nodes import NodeSet, validate_samples
from .weights import ExtParams, PrecomputedWeights, whole

_CHUNK = 4096
# A batch of m points takes about _BLOCK // m nodes per step of the kernel,
# under _SWEEP_MIN points; from there on one node per step with in-place
# updates is faster (measured on a 2-vCPU Xeon, AVX-512, numpy 2.4).
_BLOCK = 2 ** 13
_SWEEP_MIN = 1024


class EvalOutcome(NamedTuple):
    """Result of a single-point evaluation.

    ``at_node`` is the node index when the abscissa snapped to a node (the
    value is then the corresponding sample, exactly), else ``None``.
    """
    value: float
    at_node: Optional[int]


def zeta_eta(weights: PrecomputedWeights, nodes: NodeSet, params: ExtParams, x):
    """End-correction functions at ``x``, a scalar or a 1-D array.

    Returns ``(zeta, eta)``, each of shape ``(d,) + x.shape``: ``zeta[j]``
    for nodes ``j = 0 .. d-1`` and ``eta[k]`` for nodes
    ``j = n-d+1+k .. n``. Both are zero when ``e = 0``. The values carry the
    same common factor as the stored node weights.

    The Horner recurrences of the ``d`` nodes at one end run side by side:
    each step updates the nodes whose recurrence contains it, so every node
    sees its own steps in its own order.

    ``x`` must not equal an endpoint (powers of ``x - x_0`` and
    ``x - x_n`` are formed); callers snap node-coincident points first.
    """
    d, e = params.d, params.e
    n = nodes.n
    x = np.asarray(x, dtype=float)
    shape = (d,) + x.shape
    if e == 0:
        return np.zeros(shape), np.zeros(shape)
    if np.any(x == nodes.a) or np.any(x == nodes.b):
        raise ValueError("evaluation at an endpoint: snap to the node instead")
    col = (-1,) + (1,) * x.ndim
    xs = nodes.xs.reshape(col)
    # node j < d takes the steps k = max(j, d-e)+1 .. d-1, upward
    w0 = 1.0 / (x - nodes.a)
    zeta = np.ones(shape)
    for k in range(d - e + 1, d):
        acc = zeta[:k]
        acc *= (xs[:k] - xs[k]) * w0
        np.subtract(1.0, acc, out=acc)
    zeta *= -weights.lower_lead.reshape(col) * w0
    # node j = lo + i takes the steps k = min(j, n-d+e)-1 .. lo, downward
    lo = n - d + 1
    vn = 1.0 / (x - nodes.b)
    eta = np.ones(shape)
    for k in range(n - d + e - 1, lo - 1, -1):
        acc = eta[k + 1 - lo:]
        acc *= (xs[k + 1:] - xs[k]) * vn
        np.subtract(1.0, acc, out=acc)
    eta *= (-1.0 if lo % 2 else 1.0) * weights.upper_lead.reshape(col) * vn
    return zeta, eta


def end_coefs(weights: PrecomputedWeights, nodes: NodeSet, params: ExtParams, x):
    """Coefficients ``c_j(x) = fh[j] + corrections`` of the end nodes at the
    off-node points ``x`` (1-D).

    Returns ``(lower, upper)``, each ``(d, x.size)``: ``lower[j]`` for node
    ``j``, ``upper[i]`` for node ``n-d+1+i``. A node in both blocks has the
    same value in each, its lower correction added first. ``None`` when
    ``e = 0``, where every coefficient is the constant ``fh[j]``.
    """
    if params.e == 0:
        return None
    d, fh = params.d, weights.fh
    lower, upper = zeta_eta(weights, nodes, params, x)
    both = max(2 * d - nodes.n - 1, 0)      # nodes in both end blocks
    lower += fh[:d, None]
    upper[:both] += lower[d - both:]
    upper[both:] += fh[nodes.n + 1 - d + both:, None]
    lower[d - both:] = upper[:both]
    return lower, upper


def _add(total, v, comp=None):
    # total += v in place; Kahan-compensated when a compensation array is given
    if comp is None:
        total += v
        return
    y = v - comp
    s = total + y
    np.subtract(s - total, y, out=comp)
    total[...] = s


def _reduce(block):
    # block[0] + block[1] + ... per column, one rounding per add, in row
    # order: np.add.reduce over axis 0 adds a C-contiguous block row by row,
    # but it sums a lone column pairwise, and np.add.accumulate never does
    if block.ndim == 2:
        return np.add.reduce(block, axis=0)
    return np.add.accumulate(block)[-1]


def term_sums(xs, w, x, ys=None, ends=None, col=None, compensated=False):
    """Node sums of the terms ``t_k = c_k / (x - x_k)`` at the off-node
    points ``x`` (1-D), added left to right in node order from 0.0.

    ``c_k`` is the constant ``w[k]``, except at the end nodes when ``ends``
    (from :func:`end_coefs`) gives their values per point. Returns ``(num, den)``
    with ``den = sum_k t_k`` and ``num = sum_k t_k ys[k]``. With ``ys=None``,
    ``num`` is ``sum_k |t_k|`` instead; with ``col=j`` it is ``t_j``.
    ``compensated`` adds every sum with two-term (Kahan) compensation.

    The nodes are taken ``h`` at a time. A batch of ``m < _SWEEP_MIN``
    points takes ``h = _BLOCK // m`` nodes per step: a few ufuncs form the
    ``(h, m)`` block of terms under a row holding the running sums, and
    :func:`_reduce` adds its rows in node order. A single point is the
    block with ``m = 1``. A larger batch, or a compensated one, takes one
    node per step (``h = 1``) and updates its running sums in place.
    Either way each sum sees the same adds in the same order.
    """
    m, size = x.size, xs.size
    if compensated or m >= _SWEEP_MIN:
        diff, t, v = np.empty(m), np.empty(m), np.empty(m)
        num, den = np.zeros(m), np.zeros(m)
        cn, cd = (np.zeros(m), np.zeros(m)) if compensated else (None, None)
        c = w.tolist()
        if ends is not None:
            c[:len(ends[0])], c[-len(ends[1]):] = ends[0], ends[1]
        yl = ys.tolist() if ys is not None else None
        for k, xk in enumerate(xs.tolist()):
            np.subtract(x, xk, out=diff)
            np.divide(c[k], diff, out=t)
            if col is None:
                _add(num, np.absolute(t, out=v) if yl is None
                     else np.multiply(t, yl[k], out=v), cn)
            elif k == col:
                num = t.copy()
            _add(den, t, cd)
        return num, den
    h = min(_BLOCK // max(m, 1), size)
    if m != 1:
        pt, xv, xc, wc = (m,), x, xs[:, None], w[:, None]
        yc = None if ys is None else ys[:, None]
    else:                               # a single point has 1-D blocks
        pt, xv, xc, wc, yc = (), x[0], xs, w, ys
    nl, lo = 0, size                    # end nodes: k < nl and k >= lo
    if ends is not None:
        lower, upper = ends if m != 1 else (ends[0][:, 0], ends[1][:, 0])
        nl, lo = len(lower), size - len(upper)
    # row 0 of each block carries the running sum over the earlier nodes
    T, V = np.zeros((h + 1,) + pt), np.zeros((h + 1,) + pt)
    diff = np.empty((h,) + pt)
    for k0 in range(0, size, h):
        k1 = min(k0 + h, size)
        r = k1 - k0
        dk = np.subtract(xv, xc[k0:k1], out=diff[:r])
        t = np.divide(wc[k0:k1], dk, out=T[1:r + 1])
        if k0 < nl:
            s = min(k1, nl) - k0
            np.divide(lower[k0:k1], dk[:s], out=t[:s])
        if k1 > lo:
            s = max(k0, lo) - k0
            np.divide(upper[k0 + s - lo:k1 - lo], dk[s:], out=t[s:])
        if col is None:
            v = V[1:r + 1]
            if yc is None:
                np.absolute(t, out=v)
            else:
                np.multiply(t, yc[k0:k1], out=v)
            V[0] = _reduce(V[:r + 1])
        elif k0 <= col < k1:
            V[0] = t[col - k0]
        T[0] = _reduce(T[:r + 1])
    return V[0].reshape(m), T[0].reshape(m)


def pointwise(nodes: NodeSet, x, at_nodes, off_nodes):
    """Evaluate at a scalar or an array ``x``, in chunks of 4096 points.

    A point that snaps to node ``j`` gets ``at_nodes[j]``; the other points
    of a chunk get ``off_nodes(points)``. Returns a float for scalar ``x``,
    else an array shaped like ``x``.
    """
    xv = np.asarray(x, dtype=float)
    flat = xv.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("non-finite input")
    out = np.empty(flat.size)
    for s in range(0, flat.size, _CHUNK):
        block = flat[s:s + _CHUNK]
        snap = nodes.snap_indices(block)
        off = snap < 0
        res = at_nodes[snap]
        if off.any():
            res[off] = off_nodes(block[off])
        out[s:s + block.size] = res
    return float(out[0]) if xv.ndim == 0 else out.reshape(xv.shape)


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
    sample value exactly. Instances are immutable after construction and
    safe to evaluate concurrently.
    """

    def __init__(self, nodes: NodeSet, ys, d, e=0, compensated=False):
        if not isinstance(nodes, NodeSet):
            nodes = NodeSet(nodes)
        self.nodes = nodes
        self.ys = validate_samples(ys, nodes.n + 1)
        self.params = ExtParams(d, e).validate(nodes)
        self.weights = PrecomputedWeights(nodes, self.params)
        self.compensated = bool(compensated)

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
        x = float(x)
        if not np.isfinite(x):
            raise ValueError("non-finite input")
        j = self.nodes.snap_index(x)
        if j is not None:
            return EvalOutcome(float(self.ys[j]), j)
        return EvalOutcome(float(self._values(np.array([x]))[0]), None)

    # -- vectorized paths -------------------------------------------------

    def __call__(self, x):
        """Evaluate at a scalar or array of points."""
        return pointwise(self.nodes, x, self.ys, self._values)

    def _values(self, x):
        num, den = term_sums(self.nodes.xs, self.weights.fh, x, self.ys,
                             ends=end_coefs(self.weights, self.nodes,
                                            self.params, x),
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
            tj, den = term_sums(self.nodes.xs, self.weights.fh, xo, col=k,
                                ends=end_coefs(self.weights, self.nodes,
                                               self.params, xo))
            return tj / den

        return pointwise(self.nodes, x, unit, off_nodes)


def term_rows(nodes: NodeSet, params: ExtParams, weights: PrecomputedWeights, x):
    """Term rows ``T[m, k] = c_k(x_m)/(x_m - x_k)`` for off-node points.

    Returns ``(T, offmask, snap)``; ``T`` covers only the rows where
    ``offmask`` is true (``None`` if every point snapped to a node). The
    interpolant is ``(T @ ys) / T.sum(axis=1)`` and the basis functions are
    the rows of ``T`` over their sum. ``T`` is dense, ``points x (n+1)``;
    the evaluators never form it.
    """
    x = np.asarray(x, dtype=float)
    snap = nodes.snap_indices(x)
    off = snap < 0
    xo = x[off]
    if not xo.size:
        return None, off, snap
    C = np.broadcast_to(weights.fh, (xo.size, nodes.n + 1)).copy()
    ends = end_coefs(weights, nodes, params, xo)
    if ends is not None:
        C[:, :params.d] = ends[0].T
        C[:, nodes.n + 1 - params.d:] = ends[1].T
    T = C / (xo[:, None] - nodes.xs[None, :])
    return T, off, snap


# -- serialization --------------------------------------------------------

def dump_interpolant(interp: Interpolant) -> str:
    """Serialize nodes, samples and parameters to text, one value per line.

    The header is the node count, ``d``, ``e``, ``spacing=`` the
    equispaced spacing (``none`` for general nodes) and ``compensated=``
    0 or 1. Floats are written in shortest round-trip decimal form, so
    :func:`load_interpolant` rebuilds the interpolant bit for bit.
    """
    nodes = interp.nodes
    lines = [str(nodes.n + 1), str(interp.params.d), str(interp.params.e),
             f"spacing={'none' if nodes.spacing is None else repr(nodes.spacing)}",
             f"compensated={int(interp.compensated)}"]
    lines += [repr(float(v)) for v in nodes.xs]
    lines += [repr(float(v)) for v in interp.ys]
    return "\n".join(lines) + "\n"


def load_interpolant(text: str) -> Interpolant:
    """Inverse of :func:`dump_interpolant`; also reads the older header of
    count, ``d`` and ``e`` alone (general nodes, no compensation).

    A record with a spacing must hold the nodes of
    :meth:`NodeSet.equispaced` with exactly that spacing.
    """
    vals = text.split()
    if len(vals) < 3:
        raise ValueError("truncated interpolant record")
    count, d, e = int(vals[0]), int(vals[1]), int(vals[2])
    head = 5 if len(vals) > 3 and vals[3].startswith("spacing=") else 3
    if len(vals) != head + 2 * count:
        raise ValueError("truncated interpolant record")
    xs = np.array([float(v) for v in vals[head:head + count]])
    ys = np.array([float(v) for v in vals[head + count:]])
    nodes = NodeSet(xs)
    if head == 5 and vals[3] != "spacing=none":
        nodes = NodeSet.equispaced(xs[0], xs[-1], count - 1)
        if nodes.spacing != float(vals[3][8:]) or not np.array_equal(nodes.xs, xs):
            raise ValueError("record spacing does not match its nodes")
    return Interpolant(nodes, ys, d, e,
                       compensated=head == 5 and vals[4] == "compensated=1")
