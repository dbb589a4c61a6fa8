"""Observability: structured tracing, metrics and unified logging.

Zero-dependency substrate the rest of the package reports through:

* :mod:`repro.obs.trace` — span-based tracer (context-manager spans,
  parent/child nesting via context vars, per-sweep events, JSONL
  exporter, cross-process capture/replay) with a strictly no-op fast
  path when disabled;
* :mod:`repro.obs.metrics` — process-local registry of counters,
  gauges and fixed-log-bucket histograms fed from the cache, executor
  and sampler hot paths;
* :mod:`repro.obs.log` — the single ``repro`` root logger and the
  idempotent CLI handler configuration;
* :mod:`repro.obs.export` — trace-file schema, reading and validation;
* :mod:`repro.obs.summary` — the ``repro trace summary|tree`` views;
* :mod:`repro.obs.profile` — wall-clock sampling profiler (daemon
  thread over ``sys._current_frames``, folded stacks keyed to the
  active span), strictly no-op when disabled;
* :mod:`repro.obs.prom` — Prometheus text exposition of the registry
  (``/metricz?format=prometheus``) plus a minimal parser;
* :mod:`repro.obs.regress` — cross-run perf regression detection over
  the committed ``BENCH_*.json`` trajectories (``repro bench check``).

Enable tracing with ``repro run --trace out.jsonl``, the
``REPRO_TRACE`` environment variable, or programmatically::

    from repro.obs import trace
    trace.enable("out.jsonl")
    ...
    trace.disable()
"""

from repro.obs import metrics, profile, prom, regress, trace
from repro.obs.export import read_trace, validate_record, validate_trace
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.summary import build_forest, render_tree, summarise
from repro.obs.trace import (
    TRACE_ENV,
    TRACE_SCHEMA_VERSION,
    capture,
    disable,
    enable,
    event,
    is_enabled,
    replay,
    span,
)

__all__ = [
    "TRACE_ENV",
    "TRACE_SCHEMA_VERSION",
    "MetricsRegistry",
    "build_forest",
    "capture",
    "configure_logging",
    "disable",
    "enable",
    "event",
    "get_logger",
    "is_enabled",
    "metrics",
    "profile",
    "prom",
    "read_trace",
    "regress",
    "registry",
    "render_tree",
    "replay",
    "span",
    "summarise",
    "trace",
    "validate_record",
    "validate_trace",
]
