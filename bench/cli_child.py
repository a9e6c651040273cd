"""One ``baryblend`` CLI process, as the ``cli_runs`` workload starts it.

    python3 bench/cli_child.py [--trace-out FILE] -- <baryblend argv>

Without ``--trace-out`` this is the plain command line: it calls
``baryblend.cli.main`` on the argv and exits with its status. With it, the
benchmark's span wrappers are installed first and the spans are written to
``FILE`` at exit.
"""

import sys


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: cli_child.py [--trace-out FILE] -- ARGV...")
    argv = argv[1:]
    import baryblend.cli
    if trace_out is None:
        return baryblend.cli.main(argv)
    import baryblend
    import spans
    tracer = spans.Tracer()
    spans.install(tracer, baryblend)
    tracer.enabled = True
    try:
        return baryblend.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
