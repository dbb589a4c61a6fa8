"""Spans recorded from outside the program, for the traced runs.

Nothing under ``src/`` changes for tracing. :class:`Tracer` replaces the
public functions of each layer *at the place where callers look them up*
(a class attribute, or a name imported into the calling module) with a
wrapper that records one span per call: name, start, end, parent span,
request id and a few attributes. Spans stay in memory and are written
out once, when the traced run ends; :func:`self_seconds` derives each
span's self time as its duration minus the part its children cover.

:func:`install_pipeline` covers the batch layers (synth, embedding,
corpus, artifacts, core); :func:`install_serve` covers the request path
of the texture service and runs inside the server process (see
:mod:`perfbench.serve_launcher`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable
from urllib.parse import parse_qs

#: Query parameter carrying the benchmark's request id. The texture
#: route ignores the query string, so the id rides along for free.
RID_PARAM = "rid"


class Tracer:
    """An in-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        #: "setup" or "op": which part of the run spans without a
        #: request id belong to.
        self.phase = "setup"
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- context -----------------------------------------------------------

    @property
    def request_id(self) -> int | None:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: int | None) -> None:
        self._local.rid = rid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording ---------------------------------------------------------

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        rid: int | None = None,
        span_id: int | None = None,
        **attrs: Any,
    ) -> int:
        """Store one finished span; returns its id."""
        span = {
            "id": span_id if span_id is not None else next(self._ids),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "rid": rid,
            "phase": "op" if rid is not None else self.phase,
            **attrs,
        }
        with self._lock:
            self.spans.append(span)
        return span["id"]

    def timed(
        self,
        fn: Callable[..., Any],
        name: str,
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span per call.

        ``attrs(result, *args, **kwargs)`` runs after the span closes
        and returns extra attributes for it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(result, *args, **kwargs) if attrs is not None else {}
            tracer.record(
                name, start, end, parent, tracer.request_id, span_id, **extra
            )
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def replace(self, owner: Any, attr: str, new: Any) -> Any:
        """Set ``owner.attr`` to ``new``; returns the original."""
        original = getattr(owner, attr)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))
        return original

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        self.replace(owner, attr, self.timed(getattr(owner, attr), name, attrs))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        with self._lock:
            spans = list(self.spans)
        path.write_text(json.dumps(spans), encoding="utf-8")


def read_spans(path: Path) -> list[dict[str, Any]]:
    return json.loads(path.read_text(encoding="utf-8"))


def self_seconds(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children.

    Children are clipped to the parent's interval and overlapping
    children (a queue wait that starts inside ``submit``) count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result: dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], [])):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


# -- batch layers ------------------------------------------------------------


def install_pipeline(tracer: Tracer) -> None:
    """Wrap the stage, store and fit-phase calls of the batch pipeline."""
    from repro.artifacts.store import ArtifactStore
    from repro.core import joint_model, normal_wishart
    from repro.pipeline import stages

    tracer.patch(stages.SynthCorpusStage, "compute", "synth.corpus")
    tracer.patch(stages.GelFilterStage, "compute", "embedding.gel_filter")
    tracer.patch(stages.BuildDatasetStage, "compute", "corpus.build_dataset")
    tracer.patch(stages.FitModelStage, "compute", "core.fit", _fit_attrs)
    tracer.patch(stages.BuildLinkerStage, "compute", "core.linker")
    tracer.patch(ArtifactStore, "put", "artifacts.put", _put_attrs)
    # The joint model calls these through the module (``nw.posterior``)
    # or through names it imported; patch exactly those lookups.
    tracer.patch(normal_wishart, "posterior", "core.nw_posterior")
    tracer.patch(normal_wishart, "sample", "core.nw_sample")
    tracer.patch(normal_wishart, "batch_log_density", "core.density")
    tracer.patch(joint_model, "word_log_likelihood", "core.loglik")
    make_kernel = joint_model.make_kernel

    def traced_make_kernel(*args: Any, **kwargs: Any) -> Any:
        kernel = make_kernel(*args, **kwargs)
        tokens = int(kernel.csr.n_tokens)
        kernel.sweep = tracer.timed(
            kernel.sweep, "core.z_sweep", lambda *_a, **_k: {"tokens": tokens}
        )
        return kernel

    tracer.replace(joint_model, "make_kernel", traced_make_kernel)


def _fit_attrs(result: Any, stage: Any, config: Any, *_: Any) -> dict[str, Any]:
    return {
        "topics": int(config.model.n_topics),
        "sweeps": int(config.model.n_sweeps),
    }


def _put_attrs(
    result: Path, store: Any, *_args: Any, **_kwargs: Any
) -> dict[str, Any]:
    return {"bytes": int(store.size_of(result))}


# -- serve layers ------------------------------------------------------------


def install_serve(tracer: Tracer) -> None:
    """Wrap the request path of the texture service (server process).

    ``ServeApp.handle`` reads the request id from the query string; the
    handler thread carries it through ``validate_request`` and
    ``MicroBatcher.submit``, which remembers it per request object so
    the batcher thread's ``InferenceEngine.infer`` (and the featurise
    and fold-in calls under it) record under the same id. The queue wait
    is a span from the start of ``submit`` to the start of ``infer``.
    """
    from repro.artifacts.store import ArtifactStore
    from repro.serve import app, batch, engine

    tracer.patch(ArtifactStore, "load", "artifacts.load")
    tracer.patch(app, "validate_request", "serve.parse")
    pending: dict[int, tuple[int | None, float, int | None]] = {}
    pending_lock = threading.Lock()

    handle = tracer.timed(app.ServeApp.handle, "serve.app")

    def traced_handle(self: Any, method: str, path: str, body: bytes = b"") -> Any:
        query = path.partition("?")[2]
        values = parse_qs(query).get(RID_PARAM)
        tracer.request_id = int(values[0]) if values else None
        try:
            return handle(self, method, path, body)
        finally:
            tracer.request_id = None

    tracer.replace(app.ServeApp, "handle", traced_handle)

    submit = tracer.timed(batch.MicroBatcher.submit, "serve.submit")

    def traced_submit(self: Any, request: Any) -> Any:
        started = time.perf_counter()
        with pending_lock:
            pending[id(request)] = (
                tracer.request_id, started, tracer.current_span()
            )
        return submit(self, request)

    tracer.replace(batch.MicroBatcher, "submit", traced_submit)

    infer = tracer.timed(engine.InferenceEngine.infer, "serve.infer")

    def traced_infer(self: Any, request: Any) -> Any:
        began = time.perf_counter()
        with pending_lock:
            rid, submitted, app_span = pending.pop(id(request), (None, began, None))
        tracer.record("serve.queue_wait", submitted, began, app_span, rid)
        # Parent the infer span to the handler thread's app span.
        stack = tracer._stack()
        stack.append(app_span)
        tracer.request_id = rid
        try:
            return infer(self, request)
        finally:
            tracer.request_id = None
            stack.pop()

    tracer.replace(engine.InferenceEngine, "infer", traced_infer)
    tracer.patch(engine.InferenceEngine, "features_of", "serve.featurise")
    vocabularies: dict[int, frozenset[str]] = {}

    def fold_in_attrs(result: Any, eng: Any, features: Any, *_: Any) -> dict[str, Any]:
        vocabulary = vocabularies.get(id(eng))
        if vocabulary is None:
            vocabulary = vocabularies[id(eng)] = frozenset(eng.vocabulary)
        return {
            "tokens": sum(1 for s in features.term_sequence() if s in vocabulary)
        }

    tracer.patch(engine.InferenceEngine, "fold_in", "serve.fold_in", fold_in_attrs)
