"""Command-line front end: evaluate interpolants and run benchmark sweeps,
emitting CSV (stdout or ``--out``).

Exit codes: 0 on success, 2 for invalid parameters (one-line diagnostic on
stderr), 1 for I/O failure. Given the same flags and seed, output is
byte-identical between runs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import (GridSpec, NoiseSpec, converge_csv, converge_n,
                       equispaced_samples, eval_csv, get_function,
                       lebesgue_constant, lebesgue_csv, runge_error_table,
                       runge_table_csv, scan_csv, scan_de)
from .interpolant import Interpolant
from .nodes import NodeSet
from .weights import ExtParams


def _add_common(p, need_n=True):
    p.add_argument("--fn", default="runge",
                   help="reference function: a registered name or poly:c0,c1,...")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                   help="override the function's default interval")
    if need_n:
        p.add_argument("--n", type=int, required=True,
                       help="number of equispaced subintervals (n+1 nodes)")
    p.add_argument("--grid", type=int, default=100_001,
                   help="evaluation grid point count")
    p.add_argument("--sigma", type=float, default=None,
                   help="Gaussian sample-noise standard deviation")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--out", help="output file (default: stdout)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="baryblend",
        description="Barycentric rational interpolation with blended "
                    "end corrections: evaluation and benchmark sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an interpolant")
    _add_common(p)
    p.add_argument("--d", type=int, required=True, help="local degree d")
    p.add_argument("--e", type=int, default=0, help="end-interpolant count e")
    p.add_argument("--at", type=float, action="append",
                   help="evaluation point (repeatable); default: the grid")

    p = sub.add_parser("scan", help="(d, e) sweep of errors and Lebesgue constants")
    _add_common(p)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--emax", type=int, required=True)

    p = sub.add_parser("converge", help="error-vs-n curves for several approximants")
    _add_common(p, need_n=False)
    p.add_argument("--configs", nargs="+", required=True,
                   help="approximants: fh:D ext:D,E cheb spline")
    p.add_argument("--nmax", type=int, default=160)
    p.add_argument("--n-list", help="explicit comma-separated n values")

    p = sub.add_parser("lebesgue", help="Lebesgue constant for one (n, d, e)")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, default=0)

    p = sub.add_parser("runge-table",
                       help="standard Runge benchmark: classical optimal-d "
                            "vs end-corrected defaults")
    p.add_argument("--grid", type=int, default=100_001)
    p.add_argument("--out", help="output file (default: stdout)")
    return ap


def _noise(args):
    sigma = getattr(args, "sigma", None)
    return None if sigma is None else NoiseSpec(sigma=sigma, seed=args.seed)


def _parse_config(token):
    if token == "cheb":
        return ("cheb",)
    if token == "spline":
        return ("spline",)
    if token.startswith("fh:"):
        return ("fh", int(token[3:]))
    if token.startswith("ext:"):
        d, e = token[4:].split(",")
        return ("ext", int(d), int(e))
    raise ValueError(f"bad config {token!r}; expected fh:D, ext:D,E, cheb or spline")


def _default_n_list(nmax):
    ns = []
    n = 10
    while n <= nmax:
        ns += [n, n + 1]
        n *= 2
    return [v for v in ns if v <= max(nmax, 11)]


def _run(args):
    if args.command == "runge-table":
        return runge_table_csv(runge_error_table(GridSpec(args.grid)))

    f = get_function(args.fn, args.interval)
    if args.command == "eval":
        nodes, ys = equispaced_samples(f, args.n, _noise(args))
        interp = Interpolant(nodes, ys, args.d, args.e)
        pts = (np.asarray(args.at, dtype=float) if args.at
               else GridSpec(args.grid).points(*f.interval))
        return eval_csv(pts, interp(pts))
    if args.command == "scan":
        res = scan_de(f, args.n, range(args.dmax + 1), range(args.emax + 1),
                      GridSpec(args.grid), noise=_noise(args))
        return scan_csv(res)
    if args.command == "converge":
        configs = [_parse_config(t) for t in args.configs]
        if args.n_list:
            n_list = [int(t) for t in args.n_list.split(",") if t]
        else:
            n_list = _default_n_list(args.nmax)
        noise = _noise(args)
        rows = converge_n(f, configs, n_list, GridSpec(args.grid), noise=noise)
        return converge_csv(rows, noise)
    if args.command == "lebesgue":
        nodes = NodeSet.equispaced(*f.interval, args.n)
        params = ExtParams(args.d, args.e).validate(nodes)
        rep = lebesgue_constant(nodes, params)
        return lebesgue_csv(args.n, args.d, args.e, rep)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # overflow is checked where it matters (samples and weights must be
        # finite), so numpy's warning would only add lines to stderr
        with np.errstate(over="ignore"):
            text = _run(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "out", None):
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
