"""Large-corpus bench: in-memory build + alias sweeps, under an RSS ceiling.

The pipeline holds the whole corpus in memory. This bench generates a
corpus well above the paper's crawl (63k recipes), featurises it with
:meth:`~repro.pipeline.dataset.DatasetBuilder.build`, then sweeps the
dataset with the ``alias`` kernel, the one ``kernel="auto"`` picks at
this K, and records two things:

* throughput rows appended to the committed ``BENCH_sampler.json``
  trajectory (these rows additionally carry ``build_seconds`` and
  ``peak_rss_mb``);
* the process peak RSS, asserted against the committed ceiling in
  ``benchmarks/memory_ceiling.json``.

``REPRO_BENCH_TINY=1`` selects the CI smoke preset: a 5,000-recipe
corpus so the module finishes in seconds; the full preset measures
200,000 recipes, about 3x the raw crawl.
"""

from __future__ import annotations

import json
import os
import resource
import time

import numpy as np

from benchmarks.common import REPO_ROOT, append_trajectory, git_commit
from repro.core.kernels import CSRTokens, make_kernel
from repro.core.priors import DirichletPrior
from repro.core.state import TopicCounts, initialise_assignments
from repro.pipeline.dataset import DatasetBuilder
from repro.rng import ensure_rng
from repro.synth.generator import CorpusGenerator
from repro.synth.presets import CorpusPreset

_TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

BENCH_SEED = 11
N_RECIPES = 5_000 if _TINY else 200_000
N_TOPICS = 50
N_SWEEPS = 3
KERNEL = "alias"

TRAJECTORY_PATH = REPO_ROOT / "BENCH_sampler.json"
CEILING_PATH = REPO_ROOT / "benchmarks" / "memory_ceiling.json"


def peak_rss_mb() -> float:
    """Process high-water RSS in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_dataset(n_recipes: int, seed: int = BENCH_SEED):
    """Generate the corpus and featurise it, as the pipeline does.

    The w2v filter is off: it has its own bench, and an empty exclusion
    set keeps rows comparable with the kernel-bench corpora.
    """
    generator = CorpusGenerator(rng=ensure_rng(seed))
    preset = CorpusPreset(name=f"large-bench{n_recipes}", n_recipes=n_recipes)
    corpus = generator.generate(preset)
    return DatasetBuilder(use_w2v_filter=False).build(corpus.recipes)


def measure(n_recipes: int = N_RECIPES) -> dict:
    """One trajectory record for the large-corpus build + sweep cell."""
    build_start = time.perf_counter()
    dataset = build_dataset(n_recipes)
    build_seconds = time.perf_counter() - build_start

    docs = list(dataset.docs)
    generator = ensure_rng(BENCH_SEED)
    counts = TopicCounts(len(docs), N_TOPICS, dataset.vocab_size)
    z = initialise_assignments(docs, counts, generator)
    alpha = DirichletPrior(1.0).vector(N_TOPICS)
    kernel = make_kernel(
        KERNEL, CSRTokens.from_docs(docs, z), counts, alpha, 0.1
    )
    y = generator.integers(0, N_TOPICS, size=len(docs)).astype(np.int64)
    start = time.perf_counter()
    for _ in range(N_SWEEPS):
        kernel.sweep(generator, y)
    elapsed = time.perf_counter() - start
    n_tokens = kernel.csr.n_tokens
    return {
        "commit": git_commit(),
        "preset": "tiny" if _TINY else "full",
        "n_recipes": n_recipes,
        "kernel": KERNEL,
        "n_topics": N_TOPICS,
        "n_tokens": n_tokens,
        "tokens_per_sec": round(n_tokens * N_SWEEPS / elapsed, 1),
        "build_seconds": round(build_seconds, 3),
        "fit_seconds": None,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def load_ceiling() -> float:
    raw = json.loads(CEILING_PATH.read_text())
    key = "bench_tiny_mb" if _TINY else "bench_full_mb"
    return float(raw["ceilings"][key])


# -- pytest entry points (CI smoke) ------------------------------------------


def test_large_corpus_under_memory_ceiling():
    """Build + sweep the bench corpus; peak RSS must stay under the
    committed ceiling, and the throughput row joins the trajectory."""
    record = measure()
    append_trajectory(TRAJECTORY_PATH, [record])
    ceiling = load_ceiling()
    print(
        f"\nlarge corpus: {record['n_recipes']:,} recipes, "
        f"{record['tokens_per_sec']:,.0f} tokens/s, peak RSS "
        f"{record['peak_rss_mb']:.0f} MB (ceiling {ceiling:.0f} MB)"
    )
    assert record["peak_rss_mb"] < ceiling, (
        f"peak RSS {record['peak_rss_mb']:.0f} MB breached the committed "
        f"{ceiling:.0f} MB ceiling"
    )


if __name__ == "__main__":
    row = measure()
    append_trajectory(TRAJECTORY_PATH, [row])
    print(json.dumps(row, indent=2))
