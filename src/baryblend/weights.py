"""Precomputed interpolation weights.

Everything that does not depend on the evaluation point lives here: the
classical rational-blend weights for each node, and the end-correction
coefficient tables used when extra low-degree local polynomials are blended
in at the interval ends. Stored quantities are defined only up to one
common factor, which cancels in the evaluation ratio; there is no scale to
carry along, and the factor is chosen to keep magnitudes O(1).
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


@dataclass(frozen=True)
class ExtParams:
    """Blend parameters: local degree ``d`` and end-interpolant count ``e``.

    ``e = 0`` gives the classical construction; each unit of ``e`` adds one
    extra local polynomial interpolant of reduced degree at each end of the
    interval. Validity (``0 <= d <= n`` and ``0 <= e <= d``) is checked
    against a node set. Instances are immutable and hashable.
    """

    d: int
    e: int = 0

    def __post_init__(self):
        d, e = int(self.d), int(self.e)
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
    that no temporary grows with ``n``: a chunk forms its products factor
    by factor from the left, as ``np.prod`` does, and then adds them into
    the weights column by column, so that each weight receives its windows
    in ascending order.
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
    f = np.empty((min(q, n - d + 1), d + 1))
    for i0 in range(0, n - d + 1, q):
        blk = win[i0:i0 + q]
        fb = f[:len(blk)]
        p = np.ones_like(fb)
        for l in range(d + 1):
            # fb[i, j]: factor l of the product of node j of window i0 + i
            np.subtract(blk, blk[:, l:l + 1], out=fb)
            fb /= c
            fb[:, l] = 1.0
            p *= fb
        np.divide(1.0, p, out=p)
        p[1 - i0 % 2::2] *= -1.0            # odd windows
        # weight i0 + i + k gets window i0 + i from column k: by descending
        # k, each weight sees its windows in ascending order
        for k in range(d, -1, -1):
            w[i0 + k:i0 + k + len(blk)] += p[:, k]
    return w


def end_weight_tables(nodes: NodeSet, params: ExtParams):
    """Coefficient tables for the end-correction sums.

    Returns ``(lower, upper)``. ``lower[k]`` holds the coefficients for
    extra lower-end interpolant ``i = d - e + k`` (through nodes
    ``0 .. i``), indexed by node ``j`` in ``0 .. i``. ``upper[k]`` holds the
    coefficients for extra upper-end interpolant ``i = n - d + 1 + k``
    (through nodes ``i .. n``), indexed by node ``j - i``. Both tables are
    empty when ``e = 0`` and carry the same common factor ``c**d`` as
    :func:`fh_weights`.
    """
    params.validate(nodes)
    d, e = params.d, params.e
    n = nodes.n
    xs = nodes.xs
    lower = []
    upper = []
    if e == 0:
        return lower, upper
    c = nodes.reference_spacing()
    for i in range(d - e, d):
        if nodes.is_equispaced:
            # omega_{0,j,i} = h**(-i) * (-1)**(i-j) / (j! (i-j)!)
            row = np.array([
                (-1.0 if (i - j) % 2 else 1.0) * c ** (d - i)
                / (factorial(j) * factorial(i - j))
                for j in range(i + 1)
            ])
        else:
            block = xs[:i + 1]
            m = (block[:, None] - block[None, :]) / c
            np.fill_diagonal(m, 1.0)
            row = (1.0 / np.prod(m, axis=1)) * c ** (d - i)
        lower.append(row)
    for i in range(n - d + 1, n - d + e + 1):
        if nodes.is_equispaced:
            # omega_{i,j,n} = h**(-(n-i)) * (-1)**(n-j) / ((j-i)! (n-j)!)
            row = np.array([
                (-1.0 if (n - j) % 2 else 1.0) * c ** (d - (n - i))
                / (factorial(j - i) * factorial(n - j))
                for j in range(i, n + 1)
            ])
        else:
            block = xs[i:]
            m = (block[:, None] - block[None, :]) / c
            np.fill_diagonal(m, 1.0)
            row = (1.0 / np.prod(m, axis=1)) * c ** (d - (n - i))
        upper.append(row)
    return lower, upper


class PrecomputedWeights:
    """All x-independent weight data for one interpolant.

    Attributes
    ----------
    fh : ndarray
        Stored node weights.
    lower, upper : list of ndarray
        End-correction coefficient tables from :func:`end_weight_tables`.

    Every stored family carries the same common factor. For general nodes
    the geometric mean of the weight magnitudes is divided out of all of
    them, so that magnitudes stay O(1).
    """

    def __init__(self, nodes: NodeSet, params: ExtParams):
        params.validate(nodes)
        self.d = params.d
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
        # Leading coefficients used by the Horner-form evaluators: for the
        # lower end the table row i = d-1, for the upper end the row
        # i = n-d+1.
        if self.e > 0:
            self.lower_lead = self.lower[-1]
            self.upper_lead = self.upper[0]
        else:
            self.lower_lead = None
            self.upper_lead = None
