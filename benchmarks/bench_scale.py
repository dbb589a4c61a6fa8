"""Throughput benchmarks: how far from paper scale are we?

The paper's raw corpus is 63,000 recipes. These benches measure the
pipeline's stage throughputs (corpus generation, dataset construction,
Gibbs sweeps, restart fan-out) at a fixed sub-scale, so the wall-clock
of a paper-scale run (``PAPER_PRESET``) can be extrapolated and
regressions in the hot loops show up as benchmark deltas.

Stage timings are recorded in ``benchmark.extra_info``, so they land in
the pytest-benchmark JSON (``BENCH_*.json``) and the perf trajectory can
track them run over run.

Environment knobs:

* ``REPRO_BENCH_TINY=1`` — CI smoke preset: shrinks every stage so the
  whole module finishes in well under a minute while still exercising
  the serial-vs-parallel equivalence assertions.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.pipeline.dataset import DatasetBuilder
from repro.synth.generator import CorpusGenerator
from repro.synth.presets import CorpusPreset

_TINY = os.environ.get("REPRO_BENCH_TINY") == "1"
_N = 200 if _TINY else 1000


def test_scale_corpus_generation(benchmark):
    """Recipes generated per benchmark round."""
    generator = CorpusGenerator(rng=3)
    preset = CorpusPreset(name="scale-gen", n_recipes=_N)
    corpus = benchmark(lambda: generator.generate(preset))
    assert len(corpus) == _N
    per_second = _N / benchmark.stats.stats.mean
    benchmark.extra_info["recipes_per_second"] = round(per_second, 1)
    print(f"\ncorpus generation: {per_second:,.0f} recipes/s "
          f"(paper scale 63,000 ≈ {63000 / per_second:.0f}s)")


def test_scale_dataset_build(benchmark):
    """Featurisation + filters (word2vec off; it has its own bench)."""
    corpus = CorpusGenerator(rng=3).generate(
        CorpusPreset(name="scale-build", n_recipes=_N)
    )
    builder = DatasetBuilder(use_w2v_filter=False)
    dataset = benchmark(lambda: builder.build(corpus.recipes))
    assert len(dataset) > 0
    per_second = _N / benchmark.stats.stats.mean
    benchmark.extra_info["recipes_per_second"] = round(per_second, 1)
    print(f"\ndataset build: {per_second:,.0f} recipes/s")


def test_scale_word2vec_training(benchmark):
    """Skip-gram training over sentence units of the fixed corpus."""
    from repro.corpus.tokenizer import Tokenizer
    from repro.embedding.skipgram import SkipGramConfig, SkipGramModel

    corpus = CorpusGenerator(rng=3).generate(
        CorpusPreset(name="scale-w2v", n_recipes=_N)
    )
    tokenizer = Tokenizer()
    sentences = []
    for recipe in corpus:
        for part in recipe.description.split("."):
            tokens = tokenizer.tokenize(part)
            if tokens:
                sentences.append(tokens)
    config = SkipGramConfig(epochs=2, dim=32, min_count=3, window=4)

    def fit():
        return SkipGramModel(config).fit(sentences, rng=1)

    model = benchmark.pedantic(fit, rounds=2, iterations=1)
    assert model.vocab is not None and len(model.vocab) > (10 if _TINY else 50)
    per_second = len(sentences) / benchmark.stats.stats.mean
    benchmark.extra_info["sentences_per_second"] = round(per_second, 1)
    print(f"\nword2vec: {per_second:,.0f} sentences/s "
          f"({len(sentences)} sentences, 2 epochs)")


def test_scale_gibbs_sweeps(benchmark):
    """A short Gibbs run over the fixed dataset (10 sweeps)."""
    corpus = CorpusGenerator(rng=3).generate(
        CorpusPreset(name="scale-gibbs", n_recipes=_N)
    )
    dataset = DatasetBuilder(use_w2v_filter=False).build(corpus.recipes)
    config = JointModelConfig(n_topics=10, n_sweeps=10, burn_in=5, thin=2)

    def fit():
        return JointTextureTopicModel(config).fit(
            list(dataset.docs),
            dataset.gel_log,
            dataset.emulsion_log,
            dataset.vocab_size,
            rng=1,
        )

    model = benchmark.pedantic(fit, rounds=2, iterations=1)
    assert model.theta_ is not None
    sweep_seconds = benchmark.stats.stats.mean / config.n_sweeps
    benchmark.extra_info["ms_per_sweep"] = round(sweep_seconds * 1000, 2)
    print(f"\nGibbs: {sweep_seconds * 1000:.0f} ms/sweep over "
          f"{len(dataset)} docs "
          f"(paper-scale 400 sweeps ≈ {sweep_seconds * 400 * 20:.0f}s "
          f"at 20x docs)")


def test_scale_parallel_restarts(benchmark):
    """Best-of-N restart fan-out: one worker vs a process pool.

    Asserts the pooled fit is *equivalent* to the serial one (restart
    chains draw from pre-spawned RNG streams, so the best chain is
    bit-identical for any worker count) and, on hosts with enough
    cores, that the pool actually buys wall-clock.
    """
    cores = os.cpu_count() or 1
    workers = min(4, cores)
    n_restarts = 4
    sweeps = 6 if _TINY else 20
    corpus = CorpusGenerator(rng=3).generate(
        CorpusPreset(name="scale-restarts", n_recipes=_N)
    )
    dataset = DatasetBuilder(use_w2v_filter=False).build(corpus.recipes)
    args = (
        list(dataset.docs),
        dataset.gel_log,
        dataset.emulsion_log,
        dataset.vocab_size,
    )

    def fit(n_workers: int) -> JointTextureTopicModel:
        config = JointModelConfig(
            n_topics=8, n_sweeps=sweeps, burn_in=sweeps // 2, thin=2,
            n_restarts=n_restarts, n_workers=n_workers,
        )
        return JointTextureTopicModel(config).fit(*args, rng=9)

    serial_start = time.perf_counter()
    serial_model = fit(1)
    serial_seconds = time.perf_counter() - serial_start

    parallel_model = benchmark.pedantic(
        lambda: fit(workers), rounds=1, iterations=1
    )
    parallel_seconds = benchmark.stats.stats.mean
    speedup = serial_seconds / parallel_seconds

    benchmark.extra_info.update({
        "n_workers": workers,
        "cpu_count": cores,
        "n_restarts": n_restarts,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 2),
        "restart_seconds": [
            round(s, 3) for s in parallel_model.restart_seconds_
        ],
    })
    print(f"\nrestart fan-out ({workers} workers, {cores} cores): "
          f"serial {serial_seconds:.2f}s vs parallel {parallel_seconds:.2f}s "
          f"→ {speedup:.2f}x")

    # equivalence: same spawned streams → the winning chain is identical
    assert np.allclose(serial_model.phi_, parallel_model.phi_)
    assert np.allclose(serial_model.theta_, parallel_model.theta_)
    assert np.array_equal(serial_model.y_, parallel_model.y_)
    assert serial_model.log_likelihoods_ == parallel_model.log_likelihoods_
    # perf: only meaningful where the hardware can parallelise
    if cores >= 4 and not _TINY:
        assert speedup >= 2.0, (
            f"expected >= 2x restart speedup on {cores} cores, "
            f"got {speedup:.2f}x"
        )
