"""Interpolation node sets on a real interval."""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(float).eps)


def whole(v):
    """``v`` as an int if it is integral (``3`` or ``3.0``), else ``None``."""
    try:
        return int(v) if int(v) == v else None
    except (TypeError, ValueError, OverflowError):
        return None


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

    Instances are immutable.
    """

    __setattr__ = __delattr__ = read_only

    def __init__(self, xs):
        xs = np.array(xs, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("need at least two nodes in a one-dimensional array")
        if not np.all(np.isfinite(xs)):
            raise ValueError("nodes must be finite")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        xs.flags.writeable = False
        freeze(self, xs=xs, a=float(xs[0]), b=float(xs[-1]),
               n=int(xs.size - 1), spacing=None)

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
        if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
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
        """Spacing scale: the recorded ``h`` or the mean spacing."""
        if self.spacing is not None:
            return self.spacing
        return (self.b - self.a) / self.n

    def snap_tolerance(self, j):
        """Snap radius around node ``j``: ``4*eps*max(|x_j|, h)``."""
        h = self.reference_spacing()
        return 4.0 * _EPS * max(abs(float(self.xs[j])), h)

    def snap_index(self, x):
        """Index of the node ``x`` coincides with, or ``None``.

        ``x`` counts as coincident when it lies within the snap tolerance
        of the nearest node.
        """
        xs = self.xs
        i = int(xs.searchsorted(x))
        lo, hi = max(i - 1, 0), min(i, self.n)
        dl, dh = abs(x - xs[lo]), abs(x - xs[hi])
        j, dist = (lo, dl) if dl <= dh else (hi, dh)
        return j if dist <= self.snap_tolerance(j) else None

    def snap_indices(self, x):
        """Vectorized :meth:`snap_index`: array of node indices, -1 for none."""
        x = np.asarray(x, dtype=float)
        xv, xs = x.reshape(-1), self.xs
        hi = np.searchsorted(xs, xv)
        lo = np.maximum(hi - 1, 0)
        np.minimum(hi, self.n, out=hi)
        dl, dh = xs[lo], xs[hi]
        np.abs(np.subtract(xv, dl, out=dl), out=dl)
        np.abs(np.subtract(xv, dh, out=dh), out=dh)
        np.copyto(hi, lo, where=dl <= dh)   # hi: the nearer node
        del lo
        dist, tol = np.minimum(dl, dh, out=dl), np.take(xs, hi, out=dh)
        np.maximum(np.abs(tol, out=tol), self.reference_spacing(), out=tol)
        tol *= 4.0 * _EPS
        return np.where(dist <= tol, hi, -1).reshape(x.shape)

    def __len__(self):
        return self.n + 1

    def __repr__(self):
        return (f"NodeSet(n={self.n}, a={self.a!r}, b={self.b!r}, "
                f"equispaced={self.is_equispaced})")


def validate_samples(ys, node_count):
    """Check and return samples as a read-only float array."""
    ys = np.array(ys, dtype=float)
    if ys.ndim != 1 or ys.size != node_count:
        raise ValueError(f"samples must be a flat array of length {node_count}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("samples must be finite")
    ys.flags.writeable = False
    return ys
