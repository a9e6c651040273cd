"""A fixed reference computation that measures how fast the host runs now.

The benchmark shares a few cores of a host with other tenants, and their
load moves the speed of everything on it: for seconds to minutes the same
request can take 1.5x longer, in every process alike. The worker therefore
runs :func:`probe` between requests, outside the timed region, once every
``EVERY_S`` seconds of timed work, and the timed figures are divided by how
much slower than ``REF_S`` the probes around them ran. The probe's code is
the benchmark's own and fixed: a change to the program never changes it, so
a slower program still reads slower, while a slower host does not.

The probe has three parts, and each workload names the one that behaves
like its requests: ``python`` is interpreter work and small numpy calls,
like the scalar and per-call paths of the library; ``memory`` streams an
array larger than the caches, like the dense evaluation block; ``process``
starts a fresh interpreter that imports numpy, like a CLI process or a
workload's set-up.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

# Median seconds of each probe part on the host the bounds were set on (a
# 2-vCPU Intel Xeon with AVX-512, Python 3.11, numpy 2.4), so that scaled
# figures read as seconds on that host.
REF_S = {"python": 0.0033, "memory": 0.0064, "process": 0.216}
# Seconds of timed work between two probes.
EVERY_S = {"python": 0.1, "memory": 0.1, "process": 1.0}
# A request is scaled by the mean of this many probes nearest to it: 4
# follow the host's fast and slow states closely; the memory probe's own
# timing is noisier, so it takes 15.
NEAREST = {"python": 4, "memory": 15, "process": 4}

_SMALL = np.linspace(0.0, 1.0, 256).reshape(16, 16)
_BIG = np.linspace(0.0, 1.0, 1 << 21)
_OUT = np.empty_like(_BIG)


def _python():
    d = {}
    for i in range(1500):
        d[str(i)] = (i, i * 7 % 13)
    s = sum(v[1] for v in sorted(d.values(), key=lambda v: v[1]))
    m = _SMALL.copy()
    for k in range(150):
        np.fill_diagonal(m, 1.0)
        s += float(np.prod(m[k % 16]))
        np.sum(m, axis=0)
        s += math.comb(20, k % 20)
    return s


def _memory():
    # Into a buffer allocated once, so that no page is faulted in here.
    np.multiply(_BIG, 1.5, out=_OUT)
    return float(_OUT.sum())


def _process():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=60)


_PARTS = {"python": _python, "memory": _memory, "process": _process}


def probe(part):
    """Run one probe part: ``[perf_counter() at its start, seconds]``."""
    t0 = perf_counter()
    _PARTS[part]()
    return [t0, perf_counter() - t0]


def slowdown(probes, at, part):
    """How many times slower than on the reference host the host ran around
    ``perf_counter()`` time ``at``: the mean of the ``NEAREST[part]``
    probes nearest to ``at``, over ``REF_S[part]``.

    The mean, not the median: the host flips between a fast and a slow
    state many times a second, and a request slows down by the share of
    its time spent in the slow state, which the mean follows smoothly and
    the median does not."""
    near = sorted(probes, key=lambda p: abs(p[0] - at))[:NEAREST[part]]
    return sum(p[1] for p in near) / len(near) / REF_S[part]
