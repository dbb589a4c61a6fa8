"""Registry of canonical span, event and metric names.

Every observability name the codebase emits is declared here, and the
OBS001 lint rule checks string literals passed to ``trace.span(...)``,
``trace.event(...)`` and ``registry.counter|gauge|histogram(...)``
against these sets — so a typo'd ``cache.hti`` counter fails lint
instead of silently recording into a parallel universe nobody graphs.

Regenerate after adding instrumentation with::

    python -m repro.analysis --dump-obs-names src/repro

which prints the literal name sets found in the tree, ready to paste.
Names built dynamically (e.g. per-stage spans named after
``stage.name``, per-kernel ``kernel.sweep_seconds.<name>`` histograms)
are invisible to the scanner; keep them listed here by hand — in both
the main sets *and* the ``DYNAMIC_*`` sets — so dashboards and the
trace summary have one source of truth. CI runs
``python -m repro.analysis --check-obs-names src/repro`` to verify the
scanner-visible names exactly match this registry minus the dynamic
sets, so new instrumentation cannot silently bypass OBS001.
"""

from __future__ import annotations

#: Span names, including the five pipeline stages (emitted dynamically
#: as ``trace.span(stage.name, kind="stage")``).
SPANS: frozenset[str] = frozenset(
    {
        "build-dataset",
        "build-linker",
        "collapsed-model.fit",
        "fit-model",
        "gel-filter",
        "joint-model.fit",
        "joint-model.restart",
        "lda.fit",
        "run-pipeline",
        "run-tasks",
        "serve.batch",
        "serve.fold-in",
        "serve.request",
        "synth-corpus",
    }
)

#: Point-in-time event names.
EVENTS: frozenset[str] = frozenset(
    {
        "executor.fallback",
        "sweep",
    }
)

#: Counter, gauge and histogram names.
METRICS: frozenset[str] = frozenset(
    {
        "cache.bytes_read",
        "cache.bytes_written",
        "cache.hit",
        "cache.miss",
        "executor.fallback",
        "executor.task_run_seconds",
        "executor.task_wait_seconds",
        "executor.batch_max_wait_seconds",
        "kernel.alias_refresh",
        "kernel.sweep_seconds.alias",
        "kernel.sweep_seconds.dense",
        "pipeline.stage_seconds",
        "sampler.kernel_selected",
        "sampler.sweep_log_likelihood",
        "sampler.sweep_seconds",
        "sampler.sweeps",
        "sampler.tokens_per_sec",
        "serve.answer_cache_hits",
        "serve.batch_size",
        "serve.errors",
        "serve.latency_seconds",
        "serve.queue_depth",
        "serve.requests",
    }
)


#: Span names emitted with a computed first argument (the five pipeline
#: stage spans are ``trace.span(stage.name, kind="stage")``). The
#: OBS001 literal scanner cannot see these; the CI drift check subtracts
#: them before comparing against a fresh scan.
DYNAMIC_SPANS: frozenset[str] = frozenset(
    {
        "build-dataset",
        "build-linker",
        "fit-model",
        "gel-filter",
        "synth-corpus",
    }
)

#: Event names emitted with a computed first argument (none today).
DYNAMIC_EVENTS: frozenset[str] = frozenset()

#: Metric names emitted with a computed first argument (the per-kernel
#: sweep-time histograms are ``f"kernel.sweep_seconds.{kernel}"``).
DYNAMIC_METRICS: frozenset[str] = frozenset(
    {
        "kernel.sweep_seconds.alias",
        "kernel.sweep_seconds.dense",
    }
)

assert DYNAMIC_SPANS <= SPANS, "dynamic spans must be registered in SPANS"
assert DYNAMIC_EVENTS <= EVENTS, "dynamic events must be registered"
assert DYNAMIC_METRICS <= METRICS, "dynamic metrics must be registered"


def all_names() -> dict[str, frozenset[str]]:
    """Kind → registered names, keyed the way OBS001 classifies calls."""
    return {"span": SPANS, "event": EVENTS, "metric": METRICS}


def scanner_visible_names() -> dict[str, frozenset[str]]:
    """Kind → names a literal scan of the tree should find exactly.

    The registry minus the dynamically-constructed names; the CI drift
    check compares this against ``--dump-obs-names`` output.
    """
    return {
        "span": SPANS - DYNAMIC_SPANS,
        "event": EVENTS - DYNAMIC_EVENTS,
        "metric": METRICS - DYNAMIC_METRICS,
    }
