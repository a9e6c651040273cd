"""Precomputed interpolation weights.

Everything that does not depend on the evaluation point lives here: the
classical rational-blend weights for each node, and the end-correction
coefficient tables used when extra low-degree local polynomials are blended
in at the interval ends. All stored quantities share one common scale
factor so that magnitudes stay O(1); the scale cancels in the evaluation
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .nodes import NodeSet


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


def barycentric_product(xs, lo, j, hi, factor_scale=1.0):
    """Product of ``factor_scale / (x_j - x_l)`` over ``l`` in [lo, hi], l != j."""
    w = 1.0
    xj = xs[j]
    for l in range(lo, hi + 1):
        if l != j:
            w *= factor_scale / (xj - xs[l])
    return w


def _factor_scale(nodes: NodeSet):
    # Per-factor rescale c applied inside every weight product. Each stored
    # family ends up multiplied by c**d, a common factor that cancels in the
    # evaluation ratio but keeps intermediates O(1) for large n*d.
    return nodes.reference_spacing()


def _fh_scaled(nodes: NodeSet, d):
    """Node weights times c**d, c the per-factor scale."""
    xs = nodes.xs
    n = nodes.n
    c = _factor_scale(nodes)
    w = np.zeros(n + 1)
    if nodes.is_equispaced:
        # On an equispaced lattice the products collapse to binomial sums:
        # sum of integers <= 2**d, computed exactly, over a common 1/d!.
        fact = factorial(d)
        for j in range(n + 1):
            s = sum(comb(d, j - i)
                    for i in range(max(0, j - d), min(j, n - d) + 1))
            w[j] = (s if (j - d) % 2 == 0 else -s) / fact
        return w
    for i in range(n - d + 1):
        block = xs[i:i + d + 1]
        m = (block[:, None] - block[None, :]) / c
        np.fill_diagonal(m, 1.0)
        prod = 1.0 / np.prod(m, axis=1)
        if i % 2:
            prod = -prod
        w[i:i + d + 1] += prod
    return w


def fh_weights(nodes: NodeSet, d):
    """Barycentric node weights for the degree-``d`` rational blend.

    Parameters
    ----------
    nodes : NodeSet
    d : int
        Local polynomial degree, ``0 <= d <= n``.

    Returns
    -------
    w : ndarray, shape (n + 1,)
        Weights divided by the common scale factor.
    scale : float
        The positive scale ``s_w``; the unscaled weights are ``w * s_w``.
        For equispaced nodes ``s_w = h**(-d)``; for general nodes the
        geometric mean of the weight magnitudes is divided out as well.
    """
    if not 0 <= int(d) <= nodes.n:
        raise ValueError("d must satisfy 0 <= d <= n")
    d = int(d)
    c = _factor_scale(nodes)
    w = _fh_scaled(nodes, d)
    scale = c ** (-d)
    if not nodes.is_equispaced:
        g = float(np.exp(np.mean(np.log(np.abs(w)))))
        w = w / g
        scale = scale * g
    if not np.all(np.isfinite(w)):
        raise ValueError("weight computation overflowed; nodes too extreme")
    return w, scale


def end_weight_tables(nodes: NodeSet, params: ExtParams):
    """Coefficient tables for the end-correction sums.

    Returns ``(lower, upper)``. ``lower[k]`` holds the coefficients for
    extra lower-end interpolant ``i = d - e + k`` (through nodes
    ``0 .. i``), indexed by node ``j`` in ``0 .. i``. ``upper[k]`` holds the
    coefficients for extra upper-end interpolant ``i = n - d + 1 + k``
    (through nodes ``i .. n``), indexed by node ``j - i``. Both tables are
    empty when ``e = 0`` and carry the same common scale as
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
    c = _factor_scale(nodes)
    g = 1.0
    if not nodes.is_equispaced:
        w = _fh_scaled(nodes, d)
        g = float(np.exp(np.mean(np.log(np.abs(w)))))
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
        lower.append(row / g)
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
        upper.append(row / g)
    return lower, upper


class PrecomputedWeights:
    """All x-independent weight data for one interpolant.

    Attributes
    ----------
    fh : ndarray
        Stored node weights (common scale divided out).
    scale : float
        The common scale ``s_w``; unscaled quantities are ``stored * s_w``.
    lower, upper : list of ndarray
        End-correction coefficient tables from :func:`end_weight_tables`.
    """

    def __init__(self, nodes: NodeSet, params: ExtParams):
        params.validate(nodes)
        self.d = params.d
        self.e = params.e
        try:
            self.fh, self.scale = fh_weights(nodes, params.d)
            self.lower, self.upper = end_weight_tables(nodes, params)
        except OverflowError:
            raise ValueError(
                "weight computation overflowed; nodes too extreme") from None
        for row in self.lower + self.upper:
            row.flags.writeable = False
            if not np.all(np.isfinite(row)):
                raise ValueError("weight computation overflowed; nodes too extreme")
        self.fh.flags.writeable = False
        # Leading coefficients used by the Horner-form evaluators: for the
        # lower end the table row i = d-1, for the upper end the row
        # i = n-d+1.
        if self.e > 0:
            self.lower_lead = self.lower[-1]
            self.upper_lead = self.upper[0]
        else:
            self.lower_lead = None
            self.upper_lead = None

    def rescaled(self, factor):
        """Copy with every stored family multiplied by ``factor``.

        The evaluation ratio is invariant under any common rescale; this
        exists so tests can assert that.
        """
        out = object.__new__(PrecomputedWeights)
        out.d = self.d
        out.e = self.e
        out.scale = self.scale / factor
        out.fh = self.fh * factor
        out.lower = [row * factor for row in self.lower]
        out.upper = [row * factor for row in self.upper]
        for arr in [out.fh, *out.lower, *out.upper]:
            arr.flags.writeable = False
        out.lower_lead = out.lower[-1] if out.e > 0 else None
        out.upper_lead = out.upper[0] if out.e > 0 else None
        return out
