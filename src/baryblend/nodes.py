"""Interpolation node sets on a real interval."""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(float).eps)


def whole(v):
    """``v`` as an int if it is integral (``3`` or ``3.0``), else ``None``."""
    try:
        return int(v) if int(v) == v else None
    except (TypeError, ValueError, OverflowError):
        return None


def real_array(x):
    """``x`` as ``np.asarray(x, dtype=float)`` gives it, refusing with
    ``ValueError`` what that cast would drop or fail on: complex values (an
    imaginary part, zero or not) and objects that are no numbers."""
    x = np.asarray(x)
    if x.dtype.kind == "c" or x.dtype.kind == "O" and any(
            isinstance(v, complex) for v in x.flat):
        raise ValueError("complex input is not supported; pass real numbers")
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, OverflowError):
        raise ValueError("input must be real numbers") from None


def real_scalar(x):
    """``x`` as a float, through :func:`real_array`; an array is refused."""
    x = real_array(x)
    if x.ndim:
        raise ValueError("expected a scalar")
    return x.item()


def read_only(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of an immutable class: every
    assignment is refused, and ``__init__`` sets attributes by
    :func:`freeze`."""
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def freeze(obj, **attrs):
    # object.__setattr__ keeps attribute reads as fast as on a plain
    # instance; filling vars(obj) made each read a few ns slower
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)


class NodeSet:
    """Strictly increasing, finite abscissae spanning an interval [a, b].

    Parameters
    ----------
    xs : array_like
        Strictly increasing finite values; the first and last entries are
        the interval endpoints.

    Attributes
    ----------
    xs : ndarray
        The nodes, read-only, shape ``(n + 1,)``.
    a, b : float
        Interval endpoints, ``a == xs[0]`` and ``b == xs[-1]``.
    n : int
        Number of subintervals (one less than the node count).
    spacing : float or None
        The spacing ``h`` of nodes built by :meth:`equispaced`, else
        ``None``. Only that constructor sets it, so it never describes
        nodes that are not equispaced.
    snap_radii : ndarray
        The snap radius ``4*eps*max(|x_j|, h)`` of each node, read-only,
        shape ``(n + 1,)``, with ``h = (b - a)/n``: a point within it of
        its nearest node evaluates to that node's sample.

    Instances are immutable.
    """

    __setattr__ = __delattr__ = read_only

    def __init__(self, xs):
        xs = real_array(xs)
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("need at least two nodes in a one-dimensional array")
        # the nodes between -inf and +inf: they are finite and strictly
        # increasing exactly when each entry exceeds the one before it
        pad = np.concatenate(([-np.inf], xs, [np.inf]))
        if not (pad[1:] > pad[:-1]).all():
            if not np.isfinite(xs).all():
                raise ValueError("nodes must be finite")
            raise ValueError("nodes must be strictly increasing")
        pad.flags.writeable = False     # before xs is taken as a view of it
        xs, n = pad[1:-1], xs.size - 1
        a, b = xs.item(0), xs.item(n)
        # equispaced() records h = (b - a)/n with these a and b, so the
        # radii of its nodes are those of the same values given directly
        radii = np.maximum(np.abs(xs), (b - a) / n)
        radii *= 4.0 * _EPS
        radii.flags.writeable = False
        freeze(self, xs=xs, a=a, b=b, n=n, spacing=None, snap_radii=radii,
               _pad=pad)

    @classmethod
    def equispaced(cls, a, b, n):
        """Build ``n + 1`` equispaced nodes ``a + i*h`` with ``h = (b - a)/n``.

        The construction is deterministic: given the same ``(a, b, n)`` it
        reproduces the same node values bit for bit. The last node is pinned
        to ``b`` exactly (``a + n*h`` may round past the endpoint).
        """
        a = float(a)
        b = float(b)
        n = whole(n)
        if n is None or n < 1:
            raise ValueError("invalid interval: n must be an integer >= 1")
        if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
            raise ValueError("invalid interval: need finite a < b")
        h = (b - a) / n
        xs = a + h * np.arange(n + 1)
        xs[0] = a
        xs[n] = b
        nodes = cls(xs)
        freeze(nodes, spacing=h)
        return nodes

    @property
    def is_equispaced(self):
        return self.spacing is not None

    def reference_spacing(self):
        """Spacing scale: the mean spacing ``(b - a)/n``, bit-equal to the
        ``h`` that :meth:`equispaced` records."""
        return (self.b - self.a) / self.n

    def snap_index(self, x):
        """Index of the node ``x`` coincides with, or ``None``.

        ``x`` counts as coincident when it lies within the snap radius of
        the nearest node.
        """
        # node i - 1 < x <= node i, read from the nodes between -inf and
        # +inf as in snap_indices; a tie goes to the lower node
        pad, i = self._pad, int(self.xs.searchsorted(x))
        dl, dh = x - pad.item(i), pad.item(i + 1) - x
        j, dist = (i, dh) if dh < dl else (i - 1, dl)
        return j if dist <= self.snap_radii.item(j) else None

    def snap_indices(self, x):
        """Vectorized :meth:`snap_index`: array of node indices, -1 for none."""
        x = real_array(x)
        # node hi - 1 < x <= node hi, with the nodes between -inf and +inf,
        # so that both distances are formed without a sign or a clip
        pad = self._pad
        hi = self.xs.searchsorted(x)
        dl = np.subtract(x, pad.take(hi))
        dh = np.subtract(pad.take(hi + 1), x)
        near, dist = hi - (dl <= dh), np.minimum(dl, dh)
        # near is n + 1 only for x = +inf or NaN, whose distance is NaN
        return np.where(dist <= self.snap_radii.take(near, mode="clip"),
                        near, -1)

    def __len__(self):
        return self.n + 1

    def __repr__(self):
        return (f"NodeSet(n={self.n}, a={self.a!r}, b={self.b!r}, "
                f"equispaced={self.is_equispaced})")


def validate_samples(ys, node_count):
    """Check and return samples as a read-only float array (a copy)."""
    ys = np.array(real_array(ys))
    if ys.ndim != 1 or ys.size != node_count:
        raise ValueError(f"samples must be a flat array of length {node_count}")
    if not np.isfinite(ys).all():
        raise ValueError("samples must be finite")
    ys.flags.writeable = False
    return ys
