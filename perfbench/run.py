"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``pipeline-cold``  a cold ``run_experiment`` at K=10 per op, in-process;
* ``serve-saturate`` closed-loop ``POST /v1/texture`` on 2 keep-alive
  connections to a ``repro serve`` process.

The seed makes the inputs (per-op seeds, request bodies and their draws);
``--seconds`` sizes the fixed op count of a run. With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it runs the same
ops untraced and then traced, and reports the per-layer metrics from
spans recorded by :mod:`perfbench.tracing`. A table of every metric with
its unit and sample count goes to stdout, and the last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the program's source is not next to it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline-cold", "serve-saturate")
#: Modules the program imports lazily on its hot paths; importing them
#: here keeps import time out of ``setup_s`` and the first op.
_PRELOAD = (
    "repro.core.collapsed",
    "repro.core.variational",
    "repro.corpus.dedup",
    "repro.embedding.gel_filter",
    "repro.parallel",
    "repro.persistence",
    "repro.serve",
)
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    # Bytecode and imports happen before any clock starts.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(ROOT / "perfbench"), quiet=1)
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_PROFILE", None)
    # One BLAS thread, here and in the server it starts: on a shared
    # 2-vCPU host, a second BLAS thread adds more run-to-run spread than
    # speed. Set before numpy loads.
    for variable in _ONE_THREAD:
        os.environ[variable] = "1"
    import importlib

    for module in _PRELOAD:
        importlib.import_module(module)
    from perfbench import batch, serve
    from perfbench.common import WorkDir

    with WorkDir(ROOT) as work:
        tempfile.tempdir = str(work)
        os.environ["TMPDIR"] = str(work)
        if args.workload == "pipeline-cold":
            result = batch.pipeline_cold(args.seed, args.seconds, work, bool(args.trace))
        else:
            result = serve.serve_saturate(
                args.seed, args.seconds, ROOT, work, bool(args.trace)
            )

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print(f"{'metric':<28} {'value':>14} {'unit':<6} samples")
    for name, metric in result.metrics.items():
        print(f"{name:<28} {metric.value:>14.6g} {metric.unit:<6} {metric.samples}")
    print(f"attempted {result.attempted}, failed {result.failed}")
    missing = [
        m["name"]
        for m in wanted
        if m["name"] not in result.metrics
        or result.metrics[m["name"]].unit != m["unit"]
    ]
    if missing:
        print(f"perfbench: no value in the declared unit for {missing}", file=sys.stderr)
        return 1
    for problem in result.problems:
        print(f"problem: {problem}")
    line = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": result.metrics[m["name"]].value, "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
