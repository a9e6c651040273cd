"""Barycentric rational interpolation on arbitrary nodes, with optional
extra low-degree local interpolants blended in at the interval ends to
tame the end-of-interval conditioning of the classical construction.

Quick start::

    import numpy as np
    from baryblend import NodeSet, Interpolant

    nodes = NodeSet.equispaced(-5.0, 5.0, 40)
    r = Interpolant.from_function(nodes, lambda x: 1/(1 + x**2), d=14, e=4)
    r(0.3)            # scalar evaluation
    r(np.linspace(-5, 5, 1001))   # vectorized
"""

from .analysis import (ChebyshevBaseline, CubicSplineBaseline, ErrorReport,
                       GridSpec, LebesgueReport, NoiseSpec, ReferenceFunction,
                       ScanResult, add_noise, converge_n, error_report,
                       gaussian_deviates, get_function, lebesgue_constant,
                       lebesgue_function, register_function,
                       runge_error_table, scan_de)
from .interpolant import (EvalOutcome, Interpolant, dump_interpolant,
                          load_interpolant)
from .nodes import NodeSet
from .oracle import (SignScanReport, blend_form_value, blending_weights,
                     denominator_sign_scan)
from .weights import ExtParams, PrecomputedWeights

__version__ = "0.1.0"

__all__ = [
    "ChebyshevBaseline", "CubicSplineBaseline", "ErrorReport", "EvalOutcome",
    "ExtParams", "GridSpec", "Interpolant", "LebesgueReport", "NodeSet",
    "NoiseSpec", "PrecomputedWeights", "ReferenceFunction", "ScanResult",
    "SignScanReport", "add_noise", "blend_form_value", "blending_weights",
    "converge_n", "denominator_sign_scan", "dump_interpolant",
    "error_report", "gaussian_deviates", "get_function",
    "lebesgue_constant", "lebesgue_function", "load_interpolant",
    "register_function", "runge_error_table", "scan_de",
]
