"""Start ``repro serve`` with the benchmark's serve-layer spans installed.

Usage (from the repository root, with ``src`` and the root on
``PYTHONPATH``)::

    python3 -m perfbench.serve_launcher --spans SPANS.json -- serve ...

Everything after ``--`` goes to ``repro``'s own CLI unchanged. The
wrappers of :func:`perfbench.tracing.install_serve` are installed before
the CLI loads the model, and the recorded spans are written to
``--spans`` when the server stops (SIGTERM unwinds through the CLI's own
shutdown path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from perfbench.tracing import Tracer, install_serve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as repro_main

    tracer = Tracer()
    install_serve(tracer)
    try:
        return repro_main(cli_args)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
