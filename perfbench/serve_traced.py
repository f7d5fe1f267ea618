"""Start ``python -m repro.serve`` with the benchmark's timing wrappers.

Usage: ``python perfbench/serve_traced.py TRACE.json [serve args...]``.
The wrappers are installed before the server starts; its spans are
written to ``TRACE.json`` after it drains on SIGTERM.
"""

from __future__ import annotations

import sys

from repro.serve.__main__ import main as serve_main
from tracing import Tracer, write_trace


def main(argv: list) -> int:
    trace_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = serve_main(serve_args)
    finally:
        tracer.uninstall()
        write_trace(trace_path, tracer.spans(), ())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
