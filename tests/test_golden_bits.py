"""Pinned output bits of every evaluation path.

Each case builds one interpolant from fixed seeds and hashes, with sha256,
the bits of ``r(x)``, compensated ``r(x)``, ``basis`` at nodes ``0`` and
``n - d + 1``, ``lebesgue_function`` and scalar ``eval``, and apart from
those the compensated scalar ``eval``. The batches hold
1, 2, 32, 1,023, 1,024 and 5,000 points, so one-point blocks, node blocks
and the one-node-per-step sweep all run, and each holds exact nodes and
the two points one ulp outside the snap radius of the endpoints, where the
end corrections of (40,24,24) and (40,30,22) overflow to NaN. A change to
the kernel that keeps every operand and its order keeps every digest.

Runge's :class:`ChebyshevBaseline` at n = 64 and 1,000 is pinned the same
way: its scalar calls and the same batch sizes, nodes included, all on
the one barycentric kernel with constant weights.

NaN is hashed as one fixed pattern, since the sign of the default NaN
differs between CPU families. The nodes and weights are hashed on their
own first: log-perturbed nodes and the general-node weight normaliser
pass through ``np.exp`` and ``np.log``, whose last bit numpy does not
promise across CPUs, so a platform that rounds those differently fails
there, not on the outputs.
"""

import hashlib

import numpy as np
import pytest

from baryblend import (ChebyshevBaseline, Interpolant, NodeSet, get_function,
                       lebesgue_function)

from .conftest import log_perturbed_nodes

SIZES = (1, 2, 32, 1023, 1024, 5000)

# (n, d, e, nodes): (digest of nodes and weights, digest of the outputs),
# the first 16 hex digits of each sha256
GOLDEN = {
    (64, 12, 4, "equispaced"): ("b754ee2ea7744ef9", "8aec58dd01a50707"),
    (64, 12, 4, "log"): ("9b164282c3f8bfc0", "7ab06f3a83f6b8ae"),
    (64, 12, 12, "equispaced"): ("0735e2fbf9fba29a", "a6b24838f9f1f4b0"),
    (64, 12, 12, "log"): ("a4531f7846bf0442", "50ca29bbc62d8ebf"),
    (64, 12, 1, "equispaced"): ("da88c655cea215ea", "353bd787b0370ee8"),
    (64, 12, 1, "log"): ("a80ec7372a89b7b1", "a4d2fa89a00d99a0"),
    (10, 8, 8, "equispaced"): ("1df8750d2245cc9e", "f08b042a76920606"),
    (10, 8, 8, "log"): ("7e5c2b22aa931ed6", "4b3e357f9daca658"),
    (7, 7, 5, "equispaced"): ("7b6c3de8c24be01c", "590d6d3013706ba4"),
    (7, 7, 5, "log"): ("75d7968e1313b74c", "2815b055622e06ac"),
    (5, 5, 5, "equispaced"): ("fa8ca69ea46c708c", "1f4dd7a33bdd3d97"),
    (5, 5, 5, "log"): ("ea0a0ceb61436e79", "b4f192d0de4e696f"),
    (1000, 14, 4, "equispaced"): ("e65c559647401717", "33bcbe399a664b2e"),
    (1000, 14, 4, "log"): ("abf39db7d13b145f", "57c9d365a4e9bf7f"),
    (40, 24, 24, "equispaced"): ("37a8504ec577afdc", "f32cbca05d5411d7"),
    (40, 30, 22, "equispaced"): ("734b87f5a40b020f", "06e7c7b449aa0368"),
}


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype="<f8")
        h.update(np.where(np.isnan(a), np.nan, a).tobytes())
    return h.hexdigest()[:16]


def golden_case(n, d, e, kind):
    rng = np.random.default_rng([n, d, e])
    nodes = (NodeSet.equispaced(-1.0, 1.0, n) if kind == "equispaced"
             else log_perturbed_nodes(-1.0, 1.0, n, rng))
    r = Interpolant(nodes, rng.uniform(-1.0, 1.0, n + 1), d, e)
    edges = [np.nextafter(nodes.a + nodes.snap_radii[0], 2.0),
             np.nextafter(nodes.b - nodes.snap_radii[n], -2.0)]
    batches = [np.array([v]) for v in edges]
    for m in SIZES:
        x = rng.uniform(-1.05, 1.05, m)
        x[::13] = nodes.xs[rng.integers(0, n + 1, x[::13].size)]
        if m > 1:
            x[0], x[-1] = edges
        batches.append(x)
    return r, batches


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_bits(case):
    r, batches = golden_case(*case)
    w = r.weights
    leads = [w.lower_lead, w.upper_lead] if r.e else []
    inputs = digest([r.nodes.xs, r.ys, w.fh, *leads])
    rc = Interpolant(r.nodes, r.ys, r.d, r.e, compensated=True)
    lo = r.nodes.n - r.d + 1
    out = []
    with np.errstate(all="ignore"):
        for x in batches:
            out += [r(x), rc(x), r.basis(0, x), r.basis(lo, x),
                    lebesgue_function(r.nodes, r.params, x)]
        out.append([r.eval(v).value for x in batches for v in x[:40]])
    assert (inputs, digest(out)) == GOLDEN[case]


# the same cases: digest of the compensated scalar ``eval`` over the first
# 40 points of each batch
COMPENSATED_SCALAR = {
    (64, 12, 4, "equispaced"): "18269a18d6420474",
    (64, 12, 4, "log"): "a33748a57d14b152",
    (64, 12, 12, "equispaced"): "a21b78661404bb21",
    (64, 12, 12, "log"): "f441e2ae5103ba9b",
    (64, 12, 1, "equispaced"): "5fa29e1172617828",
    (64, 12, 1, "log"): "5205591d041c620d",
    (10, 8, 8, "equispaced"): "a6578a00bc04108f",
    (10, 8, 8, "log"): "ba63288773f72c7e",
    (7, 7, 5, "equispaced"): "adcc7ded05f182c6",
    (7, 7, 5, "log"): "d68799d3068ae9af",
    (5, 5, 5, "equispaced"): "716c4b24ecc946ee",
    (5, 5, 5, "log"): "7579a27f4d847dab",
    (1000, 14, 4, "equispaced"): "f40243db3da16129",
    (1000, 14, 4, "log"): "de32fa761cb4b414",
    (40, 24, 24, "equispaced"): "049f02ba0d30f9a6",
    (40, 30, 22, "equispaced"): "88bdfa1dd05b2897",
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_compensated_scalar_golden_bits(case):
    r, batches = golden_case(*case)
    rc = Interpolant(r.nodes, r.ys, r.d, r.e, compensated=True)
    with np.errstate(all="ignore"):
        out = [rc.eval(v).value for x in batches for v in x[:40]]
    assert digest([out]) == COMPENSATED_SCALAR[case]


# n: (digest of nodes and samples, digest of the outputs); the weights are
# exact (+-1 and +-1/2)
CHEBYSHEV = {
    64: ("308ebb0b2f6f15f7", "b1d598144a622cf1"),
    1000: ("07c93742e6fc1944", "876ab3891680c00a"),
}


@pytest.mark.parametrize("n", list(CHEBYSHEV))
def test_chebyshev_golden_bits(n):
    cheb = ChebyshevBaseline(get_function("runge"), n)
    rng = np.random.default_rng([n])
    inputs = digest([cheb.nodes.xs, cheb.ys])
    out = []
    for m in SIZES:
        x = rng.uniform(-5.25, 5.25, m)
        x[::13] = cheb.nodes.xs[rng.integers(0, n + 1, x[::13].size)]
        out += [cheb(x), [cheb(v) for v in x[:40]]]
    assert (inputs, digest(out)) == CHEBYSHEV[n]
