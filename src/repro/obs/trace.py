"""Span-based tracing with a JSONL exporter.

One process holds at most one active :class:`Tracer` (module state,
installed by :func:`enable` / removed by :func:`disable`). When no
tracer is installed the module is in its **disabled fast path**:

* :func:`span` returns a :class:`DisabledSpan` that only reads the
  monotonic clock (so callers can still derive ``fit_seconds_``-style
  timings from it) — no ids, no context-var pushes, no I/O;
* :func:`event` returns immediately after one module-flag check;
* nothing is allocated per token and no RNG is touched, so traced and
  untraced fits are bit-identical by construction.

Spans nest through a :class:`contextvars.ContextVar`, which makes
parenthood correct across threads and ``async`` frames without any
global mutable stack. Ids are ``<pid hex>.<counter hex>`` — unique
across the processes of one run without consuming randomness (the
project's RNG discipline reserves all randomness for the models).

Cross-process traces: a worker process records spans into an in-memory
buffer via :func:`capture` and ships the records back with its result;
the parent calls :func:`replay` to graft them onto the live trace (same
``trace_id``, roots re-parented onto the current span).

Records are one JSON object per line; see :mod:`repro.obs.export` for
the schema and validation.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextvars import ContextVar
from types import TracebackType
from typing import Any, Iterable, Iterator, Mapping, TextIO

from contextlib import contextmanager

#: Schema version stamped into every record (``"v"`` key).
TRACE_SCHEMA_VERSION = 1

#: Environment variable naming a trace file; the CLI enables tracing to
#: that path for any command when it is set.
TRACE_ENV = "REPRO_TRACE"

_ids = itertools.count(1)
_current_span: ContextVar[str | None] = ContextVar("repro_obs_span", default=None)

#: When true, open spans also maintain a per-thread name stack readable
#: from *other* threads (the sampling profiler cannot read another
#: thread's context variables). Off by default so the common traced
#: path pays one extra flag check per span, and the disabled path none.
_span_tracking = False
_thread_spans: dict[int, list[str]] = {}


def set_span_tracking(on: bool) -> None:
    """Toggle cross-thread span-name tracking (profiler support).

    Only :mod:`repro.obs.profile` should call this; the per-thread name
    stacks rely on the GIL (each thread mutates only its own list).
    """
    global _span_tracking
    _span_tracking = on
    if not on:
        _thread_spans.clear()


def thread_span_name(ident: int) -> str | None:
    """Innermost open span name on thread ``ident``, if tracking."""
    stack = _thread_spans.get(ident)
    if stack:
        try:
            return stack[-1]
        except IndexError:  # raced with the owning thread's pop
            return None
    return None


def _new_id() -> str:
    """Process-unique span id without consuming any randomness."""
    return f"{os.getpid():x}.{next(_ids):x}"


def _jsonable(value: Any) -> Any:
    """JSON fallback: numpy scalars via ``.item()``, else ``repr``."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return repr(value)


class Tracer:
    """Serialises span/event records to a JSONL sink, thread-safely.

    ``sink`` is either a writable text stream (owned by the caller) or
    ``None``, in which case records accumulate in :attr:`records` (the
    in-memory mode used by worker processes and tests).
    """

    def __init__(
        self, sink: TextIO | None = None, trace_id: str | None = None
    ) -> None:
        self.sink = sink
        self.records: list[dict[str, Any]] = []
        self.trace_id = trace_id or f"{os.getpid():x}-{time.time_ns():x}"
        self.n_emitted = 0
        self._lock = threading.Lock()

    def emit(self, record: dict[str, Any]) -> None:
        record.setdefault("v", TRACE_SCHEMA_VERSION)
        record.setdefault("trace_id", self.trace_id)
        with self._lock:
            self.n_emitted += 1
            if self.sink is None:
                self.records.append(record)
            else:
                self.sink.write(
                    json.dumps(
                        record,
                        sort_keys=True,
                        separators=(",", ":"),
                        default=_jsonable,
                    )
                    + "\n"
                )


#: The module-level flag: ``None`` means tracing is disabled.
_tracer: Tracer | None = None
#: File handle owned by :func:`enable`, closed by :func:`disable`.
_owned_handle: TextIO | None = None


def is_enabled() -> bool:
    """Whether a tracer is installed (the hot-path guard)."""
    return _tracer is not None


def tracer() -> Tracer | None:
    """The active tracer, if any."""
    return _tracer


def current_trace_id() -> str | None:
    """Id of the live trace (``None`` when disabled)."""
    return _tracer.trace_id if _tracer is not None else None


def current_span_id() -> str | None:
    """Id of the innermost open span on this thread, if tracing."""
    return _current_span.get() if _tracer is not None else None


def enable(target: str | os.PathLike[str] | TextIO | None = None) -> Tracer:
    """Install a tracer writing to ``target`` and return it.

    ``target`` may be a path (opened for append; JSONL concatenates
    cleanly), an open text stream, or ``None`` for an in-memory tracer.
    Replaces any previously installed tracer (closing a file handle the
    module opened itself).
    """
    global _tracer, _owned_handle
    disable()
    if target is None or hasattr(target, "write"):
        handle = target
    else:
        handle = open(os.fspath(target), "a", encoding="utf-8")  # noqa: SIM115
        _owned_handle = handle
    _tracer = Tracer(sink=handle)  # type: ignore[arg-type]
    return _tracer


def disable() -> None:
    """Remove the active tracer, closing any module-owned file handle."""
    global _tracer, _owned_handle
    _tracer = None
    if _owned_handle is not None:
        try:
            _owned_handle.close()
        finally:
            _owned_handle = None


class Span:
    """An open span: times itself and emits one record on exit."""

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start_unix",
        "duration_s",
        "status",
        "_started",
        "_token",
        "_tracked",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = _new_id()
        self.parent_id: str | None = None
        self.start_unix = 0.0
        self.duration_s = 0.0
        self.status = "ok"
        self._started = 0.0
        self._token: Any = None
        self._tracked = False

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.parent_id = _current_span.get()
        self._token = _current_span.set(self.span_id)
        if _span_tracking:
            _thread_spans.setdefault(
                threading.get_ident(), []
            ).append(self.name)
            self._tracked = True
        self.start_unix = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.duration_s = time.perf_counter() - self._started
        _current_span.reset(self._token)
        if self._tracked:
            stack = _thread_spans.get(threading.get_ident())
            if stack and stack[-1] == self.name:
                stack.pop()
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        active = _tracer
        if active is not None:
            active.emit(
                {
                    "kind": "span",
                    "span_id": self.span_id,
                    "parent_id": self.parent_id,
                    "name": self.name,
                    "start_unix": self.start_unix,
                    "duration_s": self.duration_s,
                    "status": self.status,
                    "pid": os.getpid(),
                    "thread": threading.current_thread().name,
                    "attrs": self.attrs,
                }
            )


class DisabledSpan:
    """The disabled fast path: a stopwatch and nothing else."""

    __slots__ = ("duration_s", "_started")

    #: Disabled spans have no identity; manifests store ``None``.
    span_id: str | None = None
    name = ""
    status = "ok"

    def __init__(self) -> None:
        self.duration_s = 0.0
        self._started = 0.0

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "DisabledSpan":
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.duration_s = time.perf_counter() - self._started


def span(name: str, **attrs: Any) -> Span | DisabledSpan:
    """Open a span named ``name``; use as a context manager.

    With tracing disabled this returns a :class:`DisabledSpan`, which
    still measures ``duration_s`` (two monotonic-clock reads) so call
    sites can keep deriving their timing attributes from it.
    """
    if _tracer is None:
        return DisabledSpan()
    return Span(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Emit a point-in-time event under the current span.

    A no-op (single flag check) when tracing is disabled. Hot loops
    should additionally guard with :func:`is_enabled` so the disabled
    path allocates nothing at all.
    """
    active = _tracer
    if active is None:
        return
    active.emit(
        {
            "kind": "event",
            "span_id": _current_span.get(),
            "name": name,
            "time_unix": time.time(),
            "pid": os.getpid(),
            "attrs": attrs,
        }
    )


@contextmanager
def capture() -> Iterator[list[dict[str, Any]]]:
    """Record spans/events into a list instead of the installed sink.

    Used by worker processes (ship records back with the task result —
    see :func:`replay`) and by tests. The previous tracer, if any, is
    restored on exit.
    """
    global _tracer
    previous = _tracer
    buffer = Tracer(sink=None)
    _tracer = buffer
    try:
        yield buffer.records
    finally:
        _tracer = previous


def replay(
    records: Iterable[Mapping[str, Any]], parent_id: str | None = None
) -> int:
    """Graft captured records from another process onto the live trace.

    Rewrites each record's ``trace_id`` to the current trace and
    re-parents root spans (and orphan events) onto ``parent_id`` (the
    caller's current span by default). Returns the number of records
    emitted; a no-op returning 0 when tracing is disabled.
    """
    active = _tracer
    if active is None:
        return 0
    parent = parent_id if parent_id is not None else _current_span.get()
    count = 0
    for record in records:
        merged = dict(record)
        merged["trace_id"] = active.trace_id
        if merged.get("kind") == "span" and merged.get("parent_id") is None:
            merged["parent_id"] = parent
        elif merged.get("kind") == "event" and merged.get("span_id") is None:
            merged["span_id"] = parent
        merged["forwarded"] = True
        active.emit(merged)
        count += 1
    return count
