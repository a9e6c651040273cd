"""Precomputed interpolation weights.

Everything that does not depend on the evaluation point lives here: the
classical rational-blend weights for each node, and, when extra low-degree
local polynomials are blended in at the interval ends, the one row of each
end-correction table that the Horner-form evaluators read. Stored
quantities are defined only up to one common factor, which cancels in the
evaluation ratio; the factor is chosen to keep magnitudes O(1).

Every chunked loop of the library steps by one budget of ``_BLOCK = 32768``
doubles, the evaluator's included; a build on general nodes takes
``32768 / (d + 1)`` windows a chunk, so no temporary grows with ``n``,
except the evaluator's node blocks: about ``3 * d * m`` doubles of end rows
for a batch of ``m < 2048`` points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, factorial

import numpy as np

from .nodes import NodeSet, freeze, read_only, whole

_EXTREME = "weight computation overflowed or underflowed; nodes too extreme"
# The one memory budget of the library's chunked loops, in doubles a step:
# the window chunks, factor passes and end-row slices here, and the kernel's
# node steps and pointwise's chunks of points, which interpolant imports.
_BLOCK = 2 ** 15


@dataclass(frozen=True)
class ExtParams:
    """Blend parameters: local degree ``d`` and end-interpolant count ``e``.

    ``e = 0`` gives the classical construction; each unit of ``e`` adds one
    extra local polynomial interpolant of reduced degree at each end of the
    interval. Both must be integral (``3.0`` counts as ``3``, ``2.7`` is
    refused). Validity (``0 <= d <= n`` and ``0 <= e <= d``) is checked
    against a node set. Instances are immutable and hashable.
    """

    d: int
    e: int = 0

    def __post_init__(self):
        d, e = whole(self.d), whole(self.e)
        if d is None or e is None:
            raise ValueError("d and e must be integers")
        if d < 0:
            raise ValueError("d must satisfy 0 <= d <= n")
        if not 0 <= e <= d:
            raise ValueError("e must satisfy 0 <= e <= d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)

    def validate(self, nodes: NodeSet):
        if self.d > nodes.n:
            raise ValueError("d must satisfy 0 <= d <= n")
        return self


def _window_products(pad, i0, r, d, c):
    """``p[s, i] = prod_{l != s} (x_{i0+i+s} - x_{i0+i+l}) / c`` for the
    ``r`` windows from ``i0``, multiplied from the left in ascending ``l``,
    from ``pad``, the nodes between ``d`` copies of each end node.
    Each factor is read from a table ``g(t, k) = (x_{k+t} - x_k) / c``
    (factor ``l`` of window ``i`` at node ``s`` is ``g(s - l, i0 + i + l)``,
    the same operands), which forms each difference once, not once per
    window; one pass tabulates the factors ``l0 .. l1 - 1``, so that no
    pass holds more than a few times ``_BLOCK`` doubles.
    """
    p = np.ones((d + 1, r))
    step = max(1, _BLOCK // (d + 1))
    size = pad.itemsize
    for l0 in range(0, d + 1, step):
        l1 = min(l0 + step, d + 1)
        # g[u, v] = g(u + 1 - l1, i0 + l0 + v), from the rows x[u, v] =
        # x_{i0 + l0 + v + u + 1 - l1}, each its predecessor one node on: a
        # strided view of pad, whose row l1 - 1 is x_k (entries past an end
        # node repeat it, and go unread)
        x = np.ndarray((d + l1 - l0, l1 - l0 + r - 1), buffer=pad,
                       offset=size * (i0 + l0 + 1 - l1 + d),
                       strides=(size, size))
        g = np.subtract(x, x[l1 - 1])
        g /= c
        g[l1 - 1] = 1.0
        for l in range(l0, l1):
            p *= g[l1 - 1 - l:l1 + d - l, l - l0:l - l0 + r]
    return p


def fh_weights(nodes: NodeSet, d):
    """Barycentric node weights for the degree-``d`` rational blend.

    Returns the weights, shape ``(n + 1,)``, times ``c**d`` with ``c`` the
    reference spacing of the nodes. On an equispaced lattice the products
    collapse to binomial sums, exact integers ``<= 2**d``, over a common
    ``d!``. For general nodes every factor of every product is divided by
    ``c``, which keeps intermediates O(1) for large ``n*d``.

    Cost: on an equispaced lattice, one array fill, plus exact integer
    prefix sums of ``comb(d, k)`` for the ``2d`` end weights (the interior
    ones are all ``2**d``). For general nodes, each chunk of about
    ``_BLOCK // (d + 1)`` windows forms its O(chunk * d) node differences
    once, in one table (one subtraction from a strided view of the nodes,
    no index array), and then multiplies the ``d + 1`` factors of all
    its windows in ``d + 1`` numpy calls (:func:`_window_products`), so
    that no temporary grows with ``n``; each weight receives the products
    of its windows in ascending order.

    A product that overflows drops its term (``1/inf`` is 0). Such a build
    is refused with ``ValueError`` unless every dropped term is provably
    below the rounding of its weight.
    """
    d = ExtParams(d).validate(nodes).d
    n = nodes.n
    if nodes.is_equispaced:
        # pre[t] = comb(d, 0) + ... + comb(d, t - 1); node j sums the
        # offsets k = max(0, j - n + d) .. min(j, d) of its windows
        pre = [0, *accumulate(comb(d, k) for k in range(d + 1))]
        fact = factorial(d)
        w = np.full(n + 1, pre[-1] / fact)
        for j in (*range(d), *range(n - d + 1, n + 1)):
            w[j] = (pre[min(j, d) + 1] - pre[max(0, j - n + d)]) / fact
        w[(d + 1) % 2::2] *= -1.0           # the sign (-1)**(j - d)
        return w
    c = nodes.reference_spacing()
    w = np.zeros(n + 1)
    pad = nodes.xs.take(np.arange(-d, n + 1 + d), mode="clip")
    q = max(1, _BLOCK // (d + 1))
    lost = []                               # weights that dropped a term
    for i0 in range(0, n - d + 1, q):
        r = min(q, n - d + 1 - i0)
        p = _window_products(pad, i0, r, d, c)
        np.divide(1.0, p, out=p)
        if not p.all():                     # 1/inf: a product overflowed
            s, i = np.nonzero(p == 0.0)
            lost.append(i0 + i + s)
        p[:, 1 - i0 % 2::2] *= -1.0         # odd windows
        # weight i0 + i + k gets window i0 + i from row k: by descending
        # k, each weight sees its windows in ascending order
        for k in range(d, -1, -1):
            w[i0 + k:i0 + k + r] += p[k]
    if lost:
        # A product that passed 2**1024 ends at least 2**1024 * m**d, with
        # m <= 1 the least factor that can follow, so a dropped term is
        # below 2**-1024 / m**d. A weight's terms share one sign; it may
        # lose d + 1 of them only within its rounding, 2**-53 of its size.
        m = min(1.0, float(np.diff(nodes.xs).min()) / c)
        size = np.abs(w[np.concatenate(lost)]) * 2.0 ** -53
        if np.any(size * m ** d < (d + 1) * 2.0 ** -1024):
            raise ValueError(_EXTREME)
    return w


def end_weight_tables(nodes: NodeSet, params: ExtParams):
    """Leading rows of the end-correction coefficient tables.

    Returns ``(lower, upper)``, one-row lists (both empty when ``e = 0``).
    ``lower[0][j]``, ``j = 0 .. d-1``, is the coefficient of node ``j`` in
    the extra lower-end interpolant ``i = d - 1``; ``upper[0][j - i]`` that
    of node ``j`` in the extra upper-end interpolant ``i = n - d + 1``
    (through nodes ``i .. n``). These are the only rows the Horner
    recurrences read; the rows of the other ``e - 1`` interpolants at each
    end are never formed. Both carry the same common factor ``c**d`` as
    :func:`fh_weights`.

    Cost: on an equispaced lattice, ``d`` factorial quotients, formed once
    for both ends. For general nodes, a fixed number of numpy calls on one
    ``(2, d, d)`` block of factors, the two windows side by side (in
    slices of rows when ``2 * d * d`` exceeds ``_BLOCK``).
    """
    d, n = params.d, nodes.n
    if params.e == 0:
        return [], []
    c = nodes.reference_spacing()
    if nodes.is_equispaced:
        # h**(1-d) (-1)**(d-1-j) / (j! (d-1-j)!) times c**d, at both ends
        row = np.array([(-1.0 if (d - 1 - j) % 2 else 1.0) * c
                        / (factorial(j) * factorial(d - 1 - j))
                        for j in range(d)])
        return [row], [row.copy()]
    # f[:, s, l] = (x_s - x_l) / c in the two windows, 1 at l = s; the
    # sequential np.multiply.accumulate multiplies each row from the left
    win = np.stack([nodes.xs[:d], nodes.xs[n - d + 1:]])
    rows = np.empty((2, d))
    step = max(1, _BLOCK // (2 * d))
    for s0 in range(0, d, step):
        s1 = min(s0 + step, d)
        f = win[:, s0:s1, None] - win[:, None, :]
        f /= c
        f.reshape(2, -1)[:, s0::d + 1] = 1.0
        rows[:, s0:s1] = np.multiply.accumulate(f, axis=2)[:, :, -1]
    rows = 1.0 / rows * c
    return [rows[0]], [rows[1]]


class PrecomputedWeights:
    """All x-independent weight data for one interpolant.

    Attributes
    ----------
    fh : ndarray
        Stored node weights.
    lower_lead, upper_lead : ndarray or None
        The end-table rows of :func:`end_weight_tables` (``None`` when
        ``e = 0``).
    lower, upper : list of ndarray
        The same rows as one-row lists (empty when ``e = 0``), which the
        benchmark's span tracer counts.
    ends, end_lists : tuple
        Each end's x-independent operands of the end-correction recurrence,
        as read-only arrays and as tuples of floats (empty when ``e = 0``).
    nodes, params : NodeSet, ExtParams
        What the weights were built for.

    Every stored family carries the same common factor. For general nodes
    the geometric mean of the weight magnitudes is divided out of all of
    them. A build is refused when a stored weight is zero or not finite,
    or when forming one overflows. Instances are immutable: assigning an
    attribute raises ``AttributeError``.
    """

    __setattr__ = __delattr__ = read_only

    def __init__(self, nodes: NodeSet, params: ExtParams):
        if not isinstance(nodes, NodeSet) or not isinstance(params, ExtParams):
            raise ValueError("weights take a NodeSet and an ExtParams")
        params.validate(nodes)
        d, e, xs = params.d, params.e, nodes.xs
        # out-of-range values are refused below, not reported as warnings
        with np.errstate(all="ignore"):
            try:
                fh = fh_weights(nodes, d)
                lower, upper = end_weight_tables(nodes, params)
            except OverflowError:
                raise ValueError(_EXTREME) from None
            # every stored weight in one array, fh and then the two leads,
            # of which the stored families are read-only views
            stored = np.concatenate([fh, *lower, *upper]) if e else fh
            if not nodes.is_equispaced:     # else g = 1
                # np.mean of the logs is np.add.reduce over the count
                g = np.exp(np.add.reduce(np.log(np.abs(fh))) / fh.size)
                stored /= g
            # no weight is zero in exact arithmetic: a zero one underflowed
            # (the leads in ends below are lower and upper up to exact sign
            # and order); w / w is exactly 1 for every finite nonzero w, and
            # NaN for 0, an infinity or a NaN
            if not (stored / stored == 1.0).all():
                raise ValueError(_EXTREME)
        stored.flags.writeable = False
        n1 = nodes.n + 1
        fh = stored[:n1]
        # each end as (endpoint, its d nodes from the endpoint inward, their
        # leads times the end's sign, their fh): the upper end's node n - i
        # is then the lower end's node i, so one recurrence serves both
        ends = ()
        if e:
            lower, upper = [stored[n1:n1 + d]], [stored[n1 + d:]]
            sign = -1.0 if (n1 - d) % 2 else 1.0
            ends = ((nodes.a, xs[:d], -lower[0], fh[:d]),
                    (nodes.b, xs[::-1][:d], sign * upper[0][::-1], fh[::-1][:d]))
            for end in ends:
                end[2].flags.writeable = False
        freeze(self, nodes=nodes, params=params, e=e, fh=fh, lower=lower,
               upper=upper, lower_lead=lower[0] if e else None,
               upper_lead=upper[0] if e else None, ends=ends,
               end_lists=tuple((end, *(tuple(a.tolist()) for a in ops))
                               for end, *ops in ends))

