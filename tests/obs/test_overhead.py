"""Disabled-path overhead budget: tracing off must cost < 5%.

The contract of ``repro.obs.trace`` is that an *untraced* fit pays
essentially nothing: ``event()`` is one module-flag check, ``span()``
returns a two-clock-read stopwatch, and the samplers guard both behind
one hoisted ``is_enabled()`` per fit. This test pins that budget
without relying on wall-clock flakiness: it measures the actual
per-call cost of the disabled primitives, multiplies by the number of
calls a tiny fit performs, and asserts the product stays under 5% of
that fit's measured duration.

The two budget tests still time a fit, so they run in the ``perf``
lane (``pytest -m perf tests/obs/test_overhead.py``), not in tier-1:
tier-1 must not depend on machine speed.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.obs import profile, trace
from repro.rng import ensure_rng


@pytest.fixture(autouse=True)
def _tracing_off():
    profile.disable()
    trace.disable()
    yield
    profile.disable()
    trace.disable()


def _tiny_fit_seconds() -> tuple[float, int]:
    rng = ensure_rng(3)
    docs = [rng.integers(0, 30, size=rng.integers(4, 12)) for _ in range(20)]
    gels = rng.normal(size=(20, 3))
    emulsions = rng.normal(size=(20, 6))
    config = JointModelConfig(n_topics=4, n_sweeps=15, burn_in=5, thin=2)
    model = JointTextureTopicModel(config)
    model.fit(docs, gels, emulsions, 30, rng=ensure_rng(5))
    assert model.fit_seconds_ is not None
    return model.fit_seconds_, config.n_sweeps


def _per_call_cost(fn, repetitions: int = 50_000) -> float:
    started = time.perf_counter()
    for _ in range(repetitions):
        fn()
    return (time.perf_counter() - started) / repetitions


@pytest.mark.perf
def test_disabled_no_op_overhead_below_five_percent():
    assert not trace.is_enabled()
    fit_seconds, n_sweeps = _tiny_fit_seconds()

    event_cost = _per_call_cost(lambda: trace.event("sweep", sweep=0))
    guard_cost = _per_call_cost(trace.is_enabled)

    def disabled_span():
        with trace.span("fit"):
            pass

    span_cost = _per_call_cost(disabled_span, repetitions=20_000)

    # What a fit actually calls with tracing off: one hoisted
    # is_enabled() plus (conservatively) one guard evaluation per sweep,
    # and a handful of spans (fit + restarts + stages).
    budget = n_sweeps * (event_cost + guard_cost) + 10 * span_cost
    assert budget < 0.05 * fit_seconds, (
        f"disabled-path overhead {budget:.6f}s exceeds 5% of "
        f"tiny-fit duration {fit_seconds:.6f}s"
    )


def test_disabled_event_allocates_no_tracer_state():
    trace.event("sweep", anything=1)
    assert trace.tracer() is None
    assert not trace.is_enabled()


@pytest.mark.perf
def test_disabled_profiler_overhead_below_five_percent():
    """With no profiler, a fit pays only the span-tracking flag check.

    The profiler adds zero code to the sampler hot loops; its only
    disabled-path footprint is one ``if _span_tracking:`` branch per
    span enter/exit plus the module guard. Pin that budget the same way
    the tracing test does: per-call cost x calls-per-fit < 5% of the
    fit itself.
    """
    assert not profile.is_enabled()
    assert not trace._span_tracking
    fit_seconds, n_sweeps = _tiny_fit_seconds()

    guard_cost = _per_call_cost(profile.is_enabled)

    def untracked_span():
        with trace.span("fit"):
            pass

    span_cost = _per_call_cost(untracked_span, repetitions=20_000)

    budget = n_sweeps * guard_cost + 10 * span_cost
    assert budget < 0.05 * fit_seconds, (
        f"disabled-profiler overhead {budget:.6f}s exceeds 5% of "
        f"tiny-fit duration {fit_seconds:.6f}s"
    )


def test_disabled_profiler_runs_no_thread_and_no_tracking():
    names = {t.name for t in threading.enumerate()}
    assert "repro-profiler" not in names
    assert "repro-series" not in names
    assert not trace._thread_spans
