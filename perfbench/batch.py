"""The in-process workload ``pipeline-cold``.

A closed loop that runs one op at a time with the program's defaults
(dense kernel, serial backend). One op is a cold ``run_experiment`` of
the 600-recipe quick configuration (K=10, 60 sweeps) into a fresh
artifact store: the staged path ``repro run --cache-dir`` takes, with
synthesis, the word2vec gel filter, featurisation, the fit, the linker
and the store writes all in the op. Each op has its own seed from the
workload seed. The clock covers the op only; the output checks, quality
scores, ``clear_cache()`` and the store's removal run after it stops.

Set-up is one cold run of the same configuration at a fixed seed, so
lazy module state is filled before the first timed op; ``setup_s`` is
the median of three (a shorter warm-up swung by 2x between runs).
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.pipeline.experiment import clear_cache, quick_config, run_experiment
from repro.rng import ensure_rng

from perfbench import layers
from perfbench.common import (
    RunResult,
    fit_problems,
    fresh_dir,
    linkage_valid,
    mean,
    median,
    nmi,
    percentile,
    self_peak_rss_mb,
    table2b_ok,
    timed_setup,
)
from perfbench.tracing import Tracer, install_pipeline

#: Latency limit per op for ``slo_ok_ratio``.
LIMIT_MS = 10_000.0
#: Seconds one op takes on a 2-vCPU VM; sizes the fixed op count.
NOMINAL_OP_S = 2.8
MIN_OPS = 3
COLD_RECIPES, COLD_SWEEPS = 600, 60
WARMUP_CONFIG = quick_config(COLD_RECIPES, COLD_SWEEPS, seed=5)


@dataclass
class OpRecord:
    seconds: float
    failed: bool
    nmi: float = 0.0
    table2b: bool = False
    linkage: float = 0.0


def op_seeds(seed: int, seconds: int) -> list[int]:
    n_ops = max(MIN_OPS, round(seconds / NOMINAL_OP_S))
    return [int(s) for s in ensure_rng(seed).integers(1, 2**31 - 1, size=n_ops)]


def _warm_up(work: Path) -> None:
    store = fresh_dir(work, "warmup-")
    run_experiment(WARMUP_CONFIG, cache_dir=store)
    clear_cache()
    shutil.rmtree(store)


def _cold_runs(seeds: list[int], work: Path) -> list[OpRecord]:
    """One timed cold run per seed; checks and clean-up are untimed."""
    records = []
    for seed in seeds:
        gc.collect()
        store = fresh_dir(work, "store-")
        started = time.perf_counter()
        try:
            result = run_experiment(
                quick_config(COLD_RECIPES, COLD_SWEEPS, seed=seed), cache_dir=store
            )
        except ReproError:
            result = None
        elapsed = time.perf_counter() - started
        if result is None:
            records.append(OpRecord(elapsed, failed=True))
        else:
            manifest = result.provenance or {}
            problems = fit_problems(result.model, result.linker)
            if manifest.get("misses") != 5 or manifest.get("hits") != 0:
                problems.append("the cold run was served from a cache")
            records.append(
                OpRecord(
                    seconds=elapsed,
                    failed=bool(problems),
                    nmi=nmi(result.topic_assignments(), result.truth_bands()),
                    table2b=table2b_ok(result),
                    linkage=linkage_valid(result),
                )
            )
            del result
        clear_cache()
        shutil.rmtree(store)
    return records


def _end_to_end(records: list[OpRecord], setup_s: float, setups: int) -> RunResult:
    n = len(records)
    ms = [r.seconds * 1000.0 for r in records]
    good = [r for r in records if not r.failed]
    result = RunResult(attempted=n, failed=n - len(good))
    result.add("setup_s", setup_s, "s", setups)
    result.add("op_ms.p50", median(ms), "ms", n)
    result.add("op_ms.p90", percentile(ms, 90.0), "ms", n)
    result.add("throughput_per_s", n / (sum(ms) / 1000.0), "1/s", n)
    result.add(
        "slo_ok_ratio",
        sum(1 for r, t in zip(records, ms) if not r.failed and t <= LIMIT_MS) / n,
        "ratio",
        n,
    )
    result.add("error_ratio", result.failed / n, "ratio", n)
    result.add("peak_rss_mb", self_peak_rss_mb(), "MB", 1)
    result.add("nmi", median([r.nmi for r in records]), "ratio", n)
    result.add("table2b_ok_ratio", sum(r.table2b for r in good) / n, "ratio", n)
    result.add("linkage_valid_ratio", mean([r.linkage for r in records]), "ratio", n)
    if result.failed:
        result.problems.append(f"{result.failed} of {n} ops failed their checks")
    return result


def pipeline_cold(seed: int, seconds: int, work: Path, trace: bool) -> RunResult:
    seeds = op_seeds(seed, seconds)
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_pipeline(tracer)
    _, setup_s, setups = timed_setup(lambda: _warm_up(work), lambda _: None)
    if tracer is None:
        return _end_to_end(_cold_runs(seeds, work), setup_s, setups)
    # Traced run: the same ops untraced, then traced, for the overhead.
    tracer.uninstall()
    untraced = _cold_runs(seeds, work)
    install_pipeline(tracer)
    tracer.phase = "op"
    traced = _cold_runs(seeds, work)
    tracer.uninstall()
    result = RunResult(attempted=len(traced), failed=sum(r.failed for r in traced))
    layers.batch_layers(
        result,
        tracer.spans,
        n_ops=len(traced),
        n_setups=setups,
        overhead=median([r.seconds for r in traced])
        / median([r.seconds for r in untraced])
        - 1.0,
    )
    return result
