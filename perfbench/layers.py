"""Per-layer metrics of a traced run, derived from its spans.

Busy times are per unit of work: a call the workload's ops make is
summed over the traced ops and divided by their number; a call only
set-up makes is summed over set-up and divided by the set-ups run. The
fit phases are per fit, and with ``core.fit_self_s`` (the fit's self
time: y-draw, accumulation, init) they add up to ``core.fit_s``. Serve
metrics are per request: ``serve.app_ms`` is ``ServeApp.handle`` and
``serve.transport_ms`` is the client's send-to-answer time minus it, so
the two add up to each request's client latency.

Every run reports every metric; a layer the workload never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Sequence

from perfbench.common import RunResult, mean, median, percentile
from perfbench.tracing import self_seconds

#: (name, unit, better) of every per-layer metric.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("synth.corpus_s", "s", "lower"),
    ("embedding.gel_filter_s", "s", "lower"),
    ("corpus.build_dataset_s", "s", "lower"),
    ("artifacts.put_s", "s", "lower"),
    ("artifacts.put_bytes", "bytes", "lower"),
    ("artifacts.load_s", "s", "lower"),
    ("core.fit_s", "s", "lower"),
    ("core.linker_s", "s", "lower"),
    ("core.nw_posterior_s", "s", "lower"),
    ("core.nw_posterior_calls", "count", "lower"),
    ("core.nw_recompute_ratio", "ratio", "lower"),
    ("core.nw_sample_s", "s", "lower"),
    ("core.nw_sample_calls", "count", "lower"),
    ("core.density_s", "s", "lower"),
    ("core.z_sweep_s", "s", "lower"),
    ("core.z_tokens_per_s", "1/s", "higher"),
    ("core.loglik_s", "s", "lower"),
    ("core.fit_self_s", "s", "lower"),
    ("serve.transport_ms.p50", "ms", "lower"),
    ("serve.transport_ms.p90", "ms", "lower"),
    ("serve.app_ms.p50", "ms", "lower"),
    ("serve.parse_ms.p50", "ms", "lower"),
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.queue_wait_ms.p90", "ms", "lower"),
    ("serve.batch_size.mean", "count", "higher"),
    ("serve.featurise_ms.p50", "ms", "lower"),
    ("serve.fold_in_ms.p50", "ms", "lower"),
    ("serve.fold_in_ms.p90", "ms", "lower"),
    ("serve.fold_in_tokens.mean", "count", "lower"),
    ("serve.infer_other_ms.p50", "ms", "lower"),
    ("serve.ok_status_ratio", "ratio", "higher"),
    ("gen.repeat_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Span name -> busy-time metric, for calls timed as a whole.
_BUSY = {
    "synth.corpus": "synth.corpus_s",
    "embedding.gel_filter": "embedding.gel_filter_s",
    "corpus.build_dataset": "corpus.build_dataset_s",
    "artifacts.put": "artifacts.put_s",
    "artifacts.load": "artifacts.load_s",
    "core.fit": "core.fit_s",
    "core.linker": "core.linker_s",
}
#: Fit phases: span name -> per-fit metric.
_PHASES = {
    "core.nw_posterior": "core.nw_posterior_s",
    "core.nw_sample": "core.nw_sample_s",
    "core.density": "core.density_s",
    "core.z_sweep": "core.z_sweep_s",
    "core.loglik": "core.loglik_s",
}
#: Relative tolerance of the add-up checks.
_TOLERANCE = 1e-6


def _duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def _set(result: RunResult, name: str, value: float, samples: int) -> None:
    result.add(name, value, UNITS[name], samples)


def _per_unit(
    spans: Sequence[dict[str, Any]], name: str, n_ops: int, n_setups: int
) -> tuple[list[dict[str, Any]], int]:
    """The spans of ``name`` in the phase that does that work, and the
    number of units (ops or set-ups) to divide their totals by."""
    named = [s for s in spans if s["name"] == name]
    in_ops = [s for s in named if s["phase"] == "op"]
    if in_ops:
        return in_ops, n_ops
    return [s for s in named if s["phase"] == "setup"], n_setups


def pipeline_metrics(
    result: RunResult,
    spans: Sequence[dict[str, Any]],
    n_ops: int,
    n_setups: int,
) -> None:
    """Stage, store and fit-phase metrics, with the add-up check."""
    for span_name, metric in _BUSY.items():
        chosen, units = _per_unit(spans, span_name, n_ops, n_setups)
        _set(result, metric, sum(map(_duration, chosen)) / max(units, 1), len(chosen))
        if span_name == "artifacts.put":
            _set(
                result,
                "artifacts.put_bytes",
                sum(s.get("bytes", 0) for s in chosen) / max(units, 1),
                len(chosen),
            )
    fits, _ = _per_unit(spans, "core.fit", n_ops, n_setups)
    fit_ids = {s["id"] for s in fits}
    under_fit = [s for s in spans if s["parent"] in fit_ids]
    n_fits = max(len(fits), 1)
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in under_fit:
        totals[span["name"]] += _duration(span)
        calls[span["name"]] += 1
    for span_name, metric in _PHASES.items():
        _set(result, metric, totals[span_name] / n_fits, calls[span_name])
    _set(
        result,
        "core.nw_posterior_calls",
        calls["core.nw_posterior"] / n_fits,
        len(fits),
    )
    _set(result, "core.nw_sample_calls", calls["core.nw_sample"] / n_fits, len(fits))
    budget = sum(2 * s["topics"] * s["sweeps"] for s in fits)
    _set(
        result,
        "core.nw_recompute_ratio",
        calls["core.nw_posterior"] / budget if budget else 0.0,
        len(fits),
    )
    tokens = sum(s.get("tokens", 0) for s in under_fit if s["name"] == "core.z_sweep")
    _set(
        result,
        "core.z_tokens_per_s",
        tokens / totals["core.z_sweep"] if totals["core.z_sweep"] else 0.0,
        calls["core.z_sweep"],
    )
    own = self_seconds(list(spans))
    fit_self = sum(own[s["id"]] for s in fits)
    _set(result, "core.fit_self_s", fit_self / n_fits, len(fits))
    fit_total = sum(map(_duration, fits))
    phases = sum(totals[name] for name in _PHASES)
    if fits and abs(phases + fit_self - fit_total) > _TOLERANCE * fit_total:
        result.problems.append("fit phases and fit self time do not add up")


def batch_layers(
    result: RunResult,
    spans: Sequence[dict[str, Any]],
    n_ops: int,
    n_setups: int,
    overhead: float,
) -> None:
    """Per-layer metrics of a traced in-process run."""
    pipeline_metrics(result, spans, n_ops, n_setups)
    _serve_zeros(result)
    _set(result, "gen.repeat_ratio", 0.0, 0)
    _set(result, "trace.overhead_ratio", overhead, n_ops)


def _serve_zeros(result: RunResult) -> None:
    for name, _, _ in PER_LAYER:
        if name.startswith("serve."):
            _set(result, name, 0.0, 0)


def serve_layers(
    result: RunResult,
    setup_spans: Sequence[dict[str, Any]],
    server_spans: Sequence[dict[str, Any]],
    sent: Sequence[Any],
    statuses: Sequence[str],
    n_setups: int,
    overhead: float,
    batch_size_mean: float,
    repeat_ratio: float,
) -> None:
    """Per-layer metrics of a traced serve run.

    ``setup_spans`` are the benchmark's own (the fit behind the served
    model); ``server_spans`` come from the traced server process, whose
    start-up (the bundle load) is its one set-up.
    """
    pipeline_metrics(result, setup_spans, 0, n_setups)
    loads = [s for s in server_spans if s["name"] == "artifacts.load"]
    _set(result, "artifacts.load_s", sum(map(_duration, loads)), len(loads))

    by_request: dict[int, dict[str, list[dict[str, Any]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for span in server_spans:
        if span["rid"] is not None:
            by_request[span["rid"]][span["name"]].append(span)

    def each(name: str) -> list[float]:
        return [
            sum(map(_duration, named[name])) * 1000.0
            for named in by_request.values()
            if named.get(name)
        ]

    transport: list[float] = []
    other: list[float] = []
    for rid, named in by_request.items():
        if named.get("serve.app") and rid < len(sent):
            client_ms = (sent[rid].done - sent[rid].sent) * 1000.0
            transport.append(client_ms - _duration(named["serve.app"][0]) * 1000.0)
        if named.get("serve.infer"):
            other.append(
                sum(
                    sign * sum(map(_duration, named.get(name, []))) * 1000.0
                    for name, sign in (
                        ("serve.infer", 1),
                        ("serve.featurise", -1),
                        ("serve.fold_in", -1),
                    )
                )
            )
    if len(transport) != len(sent):
        result.problems.append("not every request left a serve.app span")
    if any(t < 0 for t in transport):
        result.problems.append("a request's app time exceeds its client latency")
    queue_wait = each("serve.queue_wait")
    fold_in = each("serve.fold_in")
    _set(result, "serve.transport_ms.p50", median(transport), len(transport))
    _set(result, "serve.transport_ms.p90", percentile(transport, 90.0), len(transport))
    _set(result, "serve.app_ms.p50", median(each("serve.app")), len(transport))
    parse = each("serve.parse")
    _set(result, "serve.parse_ms.p50", median(parse), len(parse))
    _set(result, "serve.queue_wait_ms.p50", median(queue_wait), len(queue_wait))
    _set(result, "serve.queue_wait_ms.p90", percentile(queue_wait, 90.0), len(queue_wait))
    _set(result, "serve.batch_size.mean", batch_size_mean, len(sent))
    featurise = each("serve.featurise")
    _set(result, "serve.featurise_ms.p50", median(featurise), len(featurise))
    _set(result, "serve.fold_in_ms.p50", median(fold_in), len(fold_in))
    _set(result, "serve.fold_in_ms.p90", percentile(fold_in, 90.0), len(fold_in))
    tokens = [
        s.get("tokens", 0) for s in server_spans if s["name"] == "serve.fold_in"
    ]
    _set(result, "serve.fold_in_tokens.mean", mean(tokens), len(tokens))
    _set(result, "serve.infer_other_ms.p50", median(other), len(other))
    _set(
        result,
        "serve.ok_status_ratio",
        statuses.count("ok") / len(statuses) if statuses else 0.0,
        len(statuses),
    )
    _set(result, "gen.repeat_ratio", repeat_ratio, len(sent))
    _set(result, "trace.overhead_ratio", overhead, len(sent))
