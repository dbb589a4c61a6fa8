"""Stage ledger of the cold pipeline: where a ``repro run`` spends its time.

Each run is one cold :func:`~repro.pipeline.experiment.run_experiment`
into a fresh artifact store, the path ``repro run --cache-dir`` takes,
and appends one record to the ``BENCH_pipeline.json`` trajectory at the
repo root::

    {"commit": ..., "preset": "full" | "tiny", "n_recipes": ...,
     "n_sweeps": ..., "seed": ..., "wall_seconds": ...,
     "stages": {"synth-corpus": ..., "gel-filter": ..., "build-dataset": ...,
                "fit-model": ..., "build-linker": ...},
     "fit_seconds": ...}

``stages`` holds the run manifest's per-stage ``computed_seconds`` (the
stage spans: compute only, store writes excluded), ``fit_seconds`` the
fitted model's ``fit_seconds_`` and ``wall_seconds`` the whole call,
store writes included. Nothing here adds a timer: every number is one
the program already records.

Run modes:

* ``python -m benchmarks.bench_pipeline`` — the ``pipeline-cold``
  configuration of ``perfbench`` (600 recipes, K = 10, 60 sweeps) at
  seeds 1-5, prints a table and appends five records.
* ``REPRO_BENCH_TINY=1 pytest benchmarks/bench_pipeline.py`` — CI
  smoke: one 150-recipe, 10-sweep run; asserts every stage and
  ``fit_seconds`` are recorded. No timing assertion.
"""

from __future__ import annotations

import os
import tempfile
import time

from benchmarks.common import REPO_ROOT, append_trajectory, git_commit
from repro.pipeline.experiment import clear_cache, quick_config, run_experiment
from repro.pipeline.stages import (
    BUILD_DATASET,
    BUILD_LINKER,
    FIT_MODEL,
    GEL_FILTER,
    SYNTH_CORPUS,
)

_TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

N_RECIPES, N_SWEEPS = (150, 10) if _TINY else (600, 60)
SEEDS = (1,) if _TINY else (1, 2, 3, 4, 5)
#: The five stages every record must name, in pipeline order.
STAGES = (SYNTH_CORPUS, GEL_FILTER, BUILD_DATASET, FIT_MODEL, BUILD_LINKER)

TRAJECTORY_PATH = REPO_ROOT / "BENCH_pipeline.json"


def measure_run(seed: int, commit: str) -> dict:
    """One cold pipeline run into a fresh store, as a trajectory record."""
    config = quick_config(N_RECIPES, N_SWEEPS, seed=seed)
    with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as store:
        started = time.perf_counter()
        result = run_experiment(config, cache_dir=store)
        wall = time.perf_counter() - started
    clear_cache()
    manifest = result.provenance or {}
    stages = manifest.get("stages", {})
    fit_seconds = result.model.fit_seconds_
    return {
        "commit": commit,
        "preset": "tiny" if _TINY else "full",
        "n_recipes": N_RECIPES,
        "n_sweeps": N_SWEEPS,
        "seed": seed,
        "wall_seconds": round(wall, 3),
        "stages": {
            name: round(stages[name]["computed_seconds"], 3)
            for name in manifest.get("order", [])
        },
        "fit_seconds": None if fit_seconds is None else round(fit_seconds, 3),
    }


def run_bench(write_trajectory: bool = True) -> list[dict]:
    """Measure every seed in turn and append the records."""
    commit = git_commit()
    records = [measure_run(seed, commit) for seed in SEEDS]
    if write_trajectory:
        append_trajectory(TRAJECTORY_PATH, records)
    return records


def render(records: list[dict]) -> str:
    lines = [
        f"{'seed':>4} {'wall':>6} "
        + " ".join(f"{name:>13}" for name in STAGES)
        + f" {'fit':>6}"
    ]
    for record in records:
        lines.append(
            f"{record['seed']:>4} {record['wall_seconds']:>6.2f} "
            + " ".join(f"{record['stages'][name]:>13.3f}" for name in STAGES)
            + f" {record['fit_seconds']:>6.2f}"
        )
    return "\n".join(lines)


# -- pytest entry point (CI smoke) ---------------------------------------------


def test_stage_ledger_records_every_stage():
    """Each record names all five stages and a non-null ``fit_seconds``."""
    records = run_bench(write_trajectory=True)
    assert records
    for record in records:
        assert tuple(record["stages"]) == STAGES, record["stages"]
        assert record["fit_seconds"] is not None, record


if __name__ == "__main__":
    bench_records = run_bench()
    print(render(bench_records))
    print(f"\nappended {len(bench_records)} records to {TRAJECTORY_PATH}")
