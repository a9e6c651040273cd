"""Precomputed interpolation weights.

Everything that does not depend on the evaluation point lives here: the
classical rational-blend weights for each node, and, when extra low-degree
local polynomials are blended in at the interval ends, the one row of each
end-correction table that the Horner-form evaluators read. Stored
quantities are defined only up to one common factor, which cancels in the
evaluation ratio; the factor is chosen to keep magnitudes O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, factorial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .nodes import NodeSet

_EXTREME = "weight computation overflowed or underflowed; nodes too extreme"
# Doubles in one chunk of window factors of a general-node weight build.
_BLOCK = 2 ** 13


def whole(v):
    """``v`` as an int if it is integral (``3`` or ``3.0``), else ``None``."""
    try:
        return int(v) if int(v) == v else None
    except (TypeError, ValueError, OverflowError):
        return None


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


def _inverse_products(win, c):
    """``1 / prod_{l != j} ((x_j - x_l) / c)`` for node ``j`` of each row
    of ``win``, the factors multiplied from the left as ``np.prod`` does."""
    f = np.empty_like(win)
    p = np.ones_like(win)
    for l in range(win.shape[1]):
        np.subtract(win, win[:, l:l + 1], out=f)
        f /= c
        f[:, l] = 1.0
        p *= f
    return np.divide(1.0, p, out=p)


def fh_weights(nodes: NodeSet, d):
    """Barycentric node weights for the degree-``d`` rational blend.

    Returns the weights, shape ``(n + 1,)``, times ``c**d`` with ``c`` the
    reference spacing of the nodes. On an equispaced lattice the products
    collapse to binomial sums, exact integers ``<= 2**d``, over a common
    ``d!``. For general nodes every factor of every product is divided by
    ``c``, which keeps intermediates O(1) for large ``n*d``.

    Cost: on an equispaced lattice, one array fill, plus exact integer
    prefix sums of ``comb(d, k)`` for the ``2d`` end weights (the interior
    ones are all ``2**d``). For general nodes, O(n * d**2) arithmetic in
    O(d) numpy calls per chunk of about ``_BLOCK // (d + 1)`` windows, so
    that no temporary grows with ``n``; each weight receives the products
    of its windows in ascending order.
    """
    if not 0 <= int(d) <= nodes.n:
        raise ValueError("d must satisfy 0 <= d <= n")
    d = int(d)
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
    win = sliding_window_view(nodes.xs, d + 1)   # win[i] = x_i .. x_{i+d}
    q = max(1, _BLOCK // (d + 1))
    for i0 in range(0, n - d + 1, q):
        p = _inverse_products(win[i0:i0 + q], c)
        p[1 - i0 % 2::2] *= -1.0            # odd windows
        # weight i0 + i + k gets window i0 + i from column k: by descending
        # k, each weight sees its windows in ascending order
        for k in range(d, -1, -1):
            w[i0 + k:i0 + k + len(p)] += p[:, k]
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
    """
    params.validate(nodes)
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
    rows = _inverse_products(np.stack([nodes.xs[:d], nodes.xs[n - d + 1:]]), c)
    rows *= c
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

    Every stored family carries the same common factor. For general nodes
    the geometric mean of the weight magnitudes is divided out of all of
    them. A build is refused when a stored weight is zero or not finite,
    or when forming one overflows.
    """

    def __init__(self, nodes: NodeSet, params: ExtParams):
        params.validate(nodes)
        self.e = params.e
        try:
            fh = fh_weights(nodes, params.d)
            lower, upper = end_weight_tables(nodes, params)
        except OverflowError:
            raise ValueError(_EXTREME) from None
        g = 1.0
        if not nodes.is_equispaced:
            g = float(np.exp(np.mean(np.log(np.abs(fh)))))
        self.fh = fh / g
        self.lower = [row / g for row in lower]
        self.upper = [row / g for row in upper]
        for arr in [self.fh, *self.lower, *self.upper]:
            # no weight is zero in exact arithmetic: a zero one underflowed
            if not np.all(np.isfinite(arr) & (arr != 0.0)):
                raise ValueError(_EXTREME)
            arr.flags.writeable = False
        self.lower_lead = self.lower[0] if self.e else None
        self.upper_lead = self.upper[0] if self.e else None
