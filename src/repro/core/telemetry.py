"""Shared sampler telemetry: per-sweep events, per-restart records.

All three Gibbs samplers (LDA, semi-collapsed joint, fully-collapsed
joint) report the same shape of runtime data: a per-sweep trace event
carrying the joint log-likelihood and the z-sweep throughput, and — for
restart fan-outs — one record per chain with its seed, wall-clock and
final likelihood. This module is that shape, written once.

The per-sweep helpers are **only called behind a
:func:`repro.obs.trace.is_enabled` guard** at a configurable sampling
interval (:func:`should_sample`), so the disabled path of every sampler
stays allocation-free and bit-identical: telemetry never touches the
model RNG stream.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.obs import metrics, trace


def should_sample(sweep: int, n_sweeps: int) -> bool:
    """Whether sweep ``sweep`` (0-based) emits an event this run.

    Every ``trace.sweep_interval()``-th sweep does, and the final sweep
    always does, so a trace never ends mid-silence.
    """
    every = trace.sweep_interval()
    return (sweep + 1) % every == 0 or sweep + 1 == n_sweeps


def sweep_telemetry(
    model: str,
    sweep: int,
    n_sweeps: int,
    log_likelihood: float,
    n_tokens: int,
    sweep_seconds: float,
    kernel: str | None = None,
) -> None:
    """Emit one per-sweep event and feed the sampler metrics.

    ``sweep_seconds`` is the z-sweep (kernel) wall-clock, so
    ``tokens_per_sec`` isolates the sampling hot loop from the Gaussian
    side of a sweep. ``kernel`` (the kernel's ``name`` attribute)
    additionally attributes the sweep time to a per-kernel histogram
    (``kernel.sweep_seconds.<name>``; registered by hand in
    :mod:`repro.obs.names` since the name is built dynamically).
    """
    tokens_per_sec = (
        n_tokens / sweep_seconds if sweep_seconds > 0.0 else 0.0
    )
    trace.event(
        "sweep",
        model=model,
        sweep=sweep,
        n_sweeps=n_sweeps,
        log_likelihood=float(log_likelihood),
        tokens_per_sec=tokens_per_sec,
        sweep_seconds=sweep_seconds,
        kernel=kernel,
    )
    registry = metrics.registry
    registry.counter("sampler.sweeps").inc()
    registry.gauge("sampler.sweep_log_likelihood").set(float(log_likelihood))
    if sweep_seconds > 0.0:
        registry.histogram("sampler.tokens_per_sec").observe(tokens_per_sec)
        registry.histogram("sampler.sweep_seconds").observe(sweep_seconds)
        if kernel is not None:
            registry.histogram(
                f"kernel.sweep_seconds.{kernel}"
            ).observe(sweep_seconds)


def generator_seed(rng: np.random.Generator) -> int | None:
    """The integer seed a generator was built from, when recoverable.

    Child streams made by :func:`repro.rng.spawn` are
    ``default_rng(int)``, whose seed survives as
    ``bit_generator.seed_seq.entropy``; generators seeded another way
    (or sent through pickling oddities) report ``None``.
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    entropy = getattr(seed_seq, "entropy", None)
    if isinstance(entropy, (int, np.integer)) and not getattr(
        seed_seq, "spawn_key", ()
    ):
        return int(entropy)
    return None


def restart_telemetry(
    rng: np.random.Generator,
    fit_seconds: float,
    final_log_likelihood: float,
) -> dict[str, Any]:
    """One restart chain's record, picklable across the process pool."""
    return {
        "seed": generator_seed(rng),
        "fit_seconds": float(fit_seconds),
        "final_log_likelihood": float(final_log_likelihood),
    }
