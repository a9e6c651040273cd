import numpy as np
import pytest

from baryblend import NodeSet

_ACCEPTANCE = []


def record_acceptance(name, passed, detail=""):
    _ACCEPTANCE.append((name, passed, detail))
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _ACCEPTANCE:
        line = f"{name}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0xB1E9D)


def perturbed_nodes(a, b, n, rng, amount=0.3):
    """Equispaced nodes with interior points jittered, endpoints fixed."""
    h = (b - a) / n
    xs = np.linspace(a, b, n + 1)
    xs[1:-1] += rng.uniform(-amount, amount, n - 1) * h
    return NodeSet(np.sort(xs))


def log_perturbed_nodes(a, b, n, rng):
    """Nodes from log-uniform gap ratios, rescaled to [a, b]."""
    gaps = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs = a + (b - a) * xs / xs[-1]
    xs[0], xs[-1] = a, b
    return NodeSet(xs)


def barycentric_product(xs, lo, j, hi):
    """Product of ``1 / (x_j - x_l)`` over ``l`` in [lo, hi], l != j."""
    w = 1.0
    xj = xs[j]
    for l in range(lo, hi + 1):
        if l != j:
            w *= 1.0 / (xj - xs[l])
    return w
