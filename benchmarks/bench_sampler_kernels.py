"""Tokens/sec benchmark matrix for the token-sampling kernel layer.

The repo's first *tracked* perf number: every run appends one record
per measured (kernel, K, corpus size) cell to the ``BENCH_sampler.json``
trajectory at the repo root::

    {"commit": ..., "preset": "full" | "tiny", "n_recipes": ...,
     "kernel": ..., "n_topics": ..., "tokens_per_sec": ...,
     "fit_seconds": ...}

``tokens_per_sec`` is measured on standalone z-sweeps (count state +
kernel only), so the number isolates the sampling hot loop from the
Gaussian side that PR 1 already vectorised; ``fit_seconds`` is the
end-to-end :meth:`JointTextureTopicModel.fit` wall-clock measured per
(kernel, K) on the primary corpus — every trajectory row records it
(the old layout measured K = 10 only and left ``null`` holes the smoke
test now rejects). The grid covers K ∈ {10, 50, 200} for both kernels
and a small corpus-size axis, because the kernels rank differently
along both: ``alias`` is O(1) per token and pulls away as K grows,
while ``dense`` stays the bit-identical default at small K (see
:func:`repro.core.kernels.select_kernel`).

Throughput floors live in ``benchmarks/sampler_floor.json`` as a
per-(kernel, K) matrix plus a shared ``tolerance`` factor; the CI smoke
checks every cell of the primary corpus against its floor and names
the offending (kernel, K) cell on failure.

Run modes:

* ``python -m benchmarks.bench_sampler_kernels`` — full bench preset
  (3,000 + 12,000 synthetic recipes, 30 sweeps per cell), prints a
  table and appends trajectory records.
* ``REPRO_BENCH_TINY=1 pytest benchmarks/bench_sampler_kernels.py`` —
  CI smoke: a 450-recipe corpus, few sweeps, plus the per-cell floor
  assertions against ``benchmarks/sampler_floor.json``.

Measurement cells run through :func:`repro.parallel.run_tasks` with a
module-level task (PAR001) but on the **serial** backend by default:
concurrent cells would contend for cores and corrupt the timings. Set
``REPRO_BENCH_BACKEND`` only if you accept that trade.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from benchmarks.common import REPO_ROOT, append_trajectory, git_commit
from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.core.kernels import CSRTokens, make_kernel
from repro.core.priors import DirichletPrior
from repro.core.state import TopicCounts, initialise_assignments
from repro.parallel import ParallelConfig, run_tasks
from repro.pipeline.dataset import DatasetBuilder
from repro.rng import ensure_rng
from repro.synth.generator import CorpusGenerator
from repro.synth.presets import CorpusPreset

_TINY = os.environ.get("REPRO_BENCH_TINY") == "1"
_BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "serial")

BENCH_SEED = 11
#: Corpus-size axis; the first entry is the primary corpus — fits and
#: floor checks run on it, the rest only measure sweep throughput.
#: Tiny keeps 450 recipes (~240 surviving the gel filter) so K = 200
#: fits clear the kmeans-seeding floor of one document per cluster.
SIZE_GRID = (450,) if _TINY else (3000, 12000)
N_SWEEPS = 4 if _TINY else 30
FIT_SWEEPS = 6 if _TINY else 40
TOPIC_GRID = (10, 50, 200)
KERNEL_GRID = ("dense", "alias")

TRAJECTORY_PATH = REPO_ROOT / "BENCH_sampler.json"
FLOOR_PATH = REPO_ROOT / "benchmarks" / "sampler_floor.json"


def bench_docs(n_recipes: int, seed: int = BENCH_SEED):
    """The bench-preset documents (w2v filter off: it has its own bench)."""
    corpus = CorpusGenerator(rng=seed).generate(
        CorpusPreset(name=f"kernel-bench{n_recipes}", n_recipes=n_recipes)
    )
    builder = DatasetBuilder(use_w2v_filter=False)
    return builder.build(corpus.recipes, rng=7)


def _measure_task(payload, rng):
    """Time standalone z-sweeps for one (kernel, K) cell.

    Module-level with an explicit rng parameter so process pools can
    pickle it; the executor's spawned stream is unused because the
    payload embeds its own seed (results are backend-independent,
    timings are not).
    """
    del rng  # cells must be reproducible from the payload alone
    kernel_name, docs, vocab_size, n_topics, n_sweeps, seed = payload
    generator = ensure_rng(seed)
    counts = TopicCounts(len(docs), n_topics, vocab_size)
    z = initialise_assignments(docs, counts, generator)
    y = generator.integers(0, n_topics, size=len(docs)).astype(np.int64)
    alpha = DirichletPrior(1.0).vector(n_topics)
    kernel = make_kernel(
        kernel_name, CSRTokens.from_docs(docs, z), counts, alpha, 0.1
    )
    start = time.perf_counter()
    for _ in range(n_sweeps):
        kernel.sweep(generator, y)
    elapsed = time.perf_counter() - start
    n_tokens = kernel.csr.n_tokens
    return {
        "kernel": kernel_name,
        "n_topics": n_topics,
        "n_tokens": n_tokens,
        "sweep_seconds": round(elapsed, 4),
        "tokens_per_sec": round(n_tokens * n_sweeps / elapsed, 1),
    }


def measure_sweeps(dataset, topic_grid=TOPIC_GRID, kernels=KERNEL_GRID):
    """tokens/sec for every (kernel, K) cell of the grid."""
    docs = list(dataset.docs)
    payloads = [
        (kernel, docs, dataset.vocab_size, n_topics, N_SWEEPS, BENCH_SEED)
        for n_topics in topic_grid
        for kernel in kernels
    ]
    return run_tasks(
        _measure_task, payloads, rng=0,
        config=ParallelConfig(backend=_BACKEND),
    )


def measure_fit(dataset, kernel: str, n_topics: int) -> float:
    """End-to-end joint-model fit wall-clock for one (kernel, K) cell."""
    config = JointModelConfig(
        n_topics=n_topics, n_sweeps=FIT_SWEEPS, burn_in=FIT_SWEEPS // 2,
        thin=5, kernel=kernel,
    )
    start = time.perf_counter()
    model = JointTextureTopicModel(config).fit(
        list(dataset.docs), dataset.gel_log, dataset.emulsion_log,
        dataset.vocab_size, rng=BENCH_SEED,
    )
    # fit_seconds_ comes from the tracing span; fall back to the outer
    # wall clock so a row can never be recorded as null again.
    seconds = model.fit_seconds_
    if seconds is None:
        seconds = time.perf_counter() - start
    return float(seconds)


def run_bench(write_trajectory: bool = True) -> list[dict]:
    """Measure the full matrix, report, and append trajectory records."""
    commit = git_commit()
    records = []
    for size_index, n_recipes in enumerate(SIZE_GRID):
        dataset = bench_docs(n_recipes)
        primary = size_index == 0
        fit_seconds = {}
        if primary:
            fit_seconds = {
                (kernel, n_topics): measure_fit(dataset, kernel, n_topics)
                for kernel in KERNEL_GRID
                for n_topics in TOPIC_GRID
            }
        for cell in measure_sweeps(dataset):
            key = (cell["kernel"], cell["n_topics"])
            records.append(
                {
                    "commit": commit,
                    "preset": "tiny" if _TINY else "full",
                    "n_recipes": n_recipes,
                    "kernel": cell["kernel"],
                    "n_topics": cell["n_topics"],
                    "n_tokens": cell["n_tokens"],
                    "tokens_per_sec": cell["tokens_per_sec"],
                    "fit_seconds": (
                        round(fit_seconds[key], 3) if primary else None
                    ),
                }
            )
    if write_trajectory:
        append_trajectory(TRAJECTORY_PATH, records)
    return records


def _by_kernel(records, n_topics):
    return {
        r["kernel"]: r for r in records if r["n_topics"] == n_topics
    }


def _primary_cells(records):
    """(kernel, K) → record, restricted to the primary corpus size."""
    primary = SIZE_GRID[0]
    return {
        (r["kernel"], r["n_topics"]): r
        for r in records
        if r["n_recipes"] == primary
    }


def load_floors() -> tuple[float, dict[tuple[str, int], float]]:
    """The committed floor matrix as ((kernel, K) → tokens/sec, tolerance)."""
    raw = json.loads(FLOOR_PATH.read_text())
    floors = {
        (kernel, int(n_topics)): float(floor)
        for kernel, by_k in raw["floors"].items()
        for n_topics, floor in by_k.items()
    }
    return float(raw["tolerance"]), floors


def render(records: list[dict]) -> str:
    lines = [
        f"{'recipes':>8} {'kernel':<8} {'K':>4} {'tokens/s':>12} "
        f"{'fit (s)':>8}"
    ]
    for n_recipes in sorted({r["n_recipes"] for r in records}):
        rows = [r for r in records if r["n_recipes"] == n_recipes]
        for n_topics in sorted({r["n_topics"] for r in rows}):
            cells = _by_kernel(rows, n_topics)
            for kernel in KERNEL_GRID:
                if kernel not in cells:
                    continue
                cell = cells[kernel]
                fit = cell.get("fit_seconds")
                lines.append(
                    f"{n_recipes:>8} {kernel:<8} {n_topics:>4} "
                    f"{cell['tokens_per_sec']:>12,.0f} "
                    f"{fit if fit is not None else '-':>8}"
                )
    return "\n".join(lines)


# -- pytest entry points (CI smoke) ------------------------------------------


def test_kernel_matrix_meets_floors():
    """Every (kernel, K) cell vs the committed floor matrix.

    Writes the BENCH_sampler.json records CI uploads as an artifact,
    rejects any primary-corpus row with a null ``fit_seconds``, and
    names the exact failing cell when a floor is breached.
    """
    records = run_bench(write_trajectory=True)
    cells = _primary_cells(records)
    tolerance, floors = load_floors()
    missing_fit = [
        key for key, cell in cells.items() if cell["fit_seconds"] is None
    ]
    assert not missing_fit, (
        f"primary-corpus rows recorded fit_seconds=null: {missing_fit}"
    )
    failures = []
    for (kernel, n_topics), floor in floors.items():
        cell = cells.get((kernel, n_topics))
        assert cell is not None, (
            f"floor matrix names cell ({kernel}, K={n_topics}) but the "
            f"bench grid never measured it"
        )
        got = cell["tokens_per_sec"]
        if got < tolerance * floor:
            failures.append(
                f"({kernel}, K={n_topics}): {got:,.0f} tokens/s is below "
                f"{tolerance:.0%} of the committed floor {floor:,.0f}"
            )
        print(
            f"{kernel:<8} K={n_topics:<4} {got:>12,.0f} tokens/s "
            f"(floor {floor:,.0f})"
        )
    assert not failures, "kernel throughput regressed:\n" + "\n".join(failures)


def test_alias_kernel_flat_in_k():
    """The O(1) claim: alias throughput at K=200 stays within a small
    factor of its K=10 throughput (dense degrades ~O(K) over the same
    span). The tiny preset only runs 4 sweeps, so first-touch table
    builds — amortised away in real runs — still dominate; allow it a
    wider band than the full preset."""
    dataset = bench_docs(SIZE_GRID[0])
    records = measure_sweeps(dataset, kernels=("alias",))
    by_k = {r["n_topics"]: r["tokens_per_sec"] for r in records}
    print(f"\nalias tokens/s by K: { {k: round(v) for k, v in by_k.items()} }")
    flat_factor = 8.0 if _TINY else 3.0
    assert by_k[200] > by_k[10] / flat_factor


if __name__ == "__main__":
    bench_records = run_bench()
    print(render(bench_records))
    print(f"\nappended {len(bench_records)} records to {TRAJECTORY_PATH}")
