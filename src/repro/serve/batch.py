"""The request queue between HTTP handler threads and the fold-in.

HTTP handler threads never run Gibbs passes themselves: they submit
requests to a :class:`MicroBatcher` and block on a future. One
collector thread takes everything queued as a batch — a lone request
runs at once, and the requests that arrive while a batch runs form the
next — and folds the requests in one after another, resolving each
future as soon as its answer is ready. The fold-in is GIL-bound Python,
so worker threads would only add handoffs.

Batching is invisible in the results: every request derives its RNG
stream from its own content (see
:func:`repro.core.estimator.request_seed`), so a request's posterior is
bit-identical whether it ran alone, in a batch of eight, or interleaved
with different neighbours. ``tests/serve/test_batch.py`` pins this
batched-equals-sequential equivalence.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future

from repro.errors import ServeError
from repro.obs import metrics, trace
from repro.serve.engine import InferenceEngine
from repro.serve.schemas import TextureRequest, TextureResponse

#: One queued request: the parsed request plus the future its handler
#: thread is blocked on.
_Item = tuple[TextureRequest, "Future[TextureResponse]"]


class MicroBatcher:
    """A request queue drained by one collector thread."""

    def __init__(self, engine: InferenceEngine) -> None:
        self.engine = engine
        self._queue: "queue.Queue[_Item | None]" = queue.Queue()
        # Guards _closed: handler threads race close() on it (THR001).
        self._lock = threading.Lock()
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name="serve-batcher", daemon=True
        )
        self._thread.start()

    # -- public ------------------------------------------------------------

    def submit(self, request: TextureRequest) -> "Future[TextureResponse]":
        """Enqueue one request; resolve its future when it is folded in."""
        future: "Future[TextureResponse]" = Future()
        with self._lock:
            if self._closed:
                raise ServeError("batcher is closed")
            # Enqueue under the lock so a request accepted here is
            # always ahead of close()'s sentinel and gets drained.
            self._queue.put((request, future))
        metrics.registry.gauge("serve.queue_depth").set(self._queue.qsize())
        return future

    def infer(
        self, request: TextureRequest, timeout: float | None = 30.0
    ) -> TextureResponse:
        """Submit and block for the answer (the handler-thread path)."""
        return self.submit(request).result(timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain the queue, join the collector."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._thread.join(timeout)

    # -- collector ----------------------------------------------------------

    def _loop(self) -> None:
        while True:
            batch = [self._queue.get()]
            # Take what is already queued; never wait for company.
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            # close() enqueues its sentinel last, under the lock that
            # every submit holds, so nothing can follow it.
            closing = batch[-1] is None
            items = [item for item in batch if item is not None]
            if items:
                self._run_batch(items)
            if closing:
                return

    def _run_batch(self, batch: list[_Item]) -> None:
        metrics.registry.gauge("serve.queue_depth").set(self._queue.qsize())
        metrics.registry.histogram("serve.batch_size").observe(len(batch))
        with trace.span("serve.batch", size=len(batch)):
            for request, future in batch:
                try:
                    response = self.engine.infer(request)
                except Exception as exc:  # repro: noqa[EXC001] - a failure must reach its own blocked handler thread, whatever its type, and no other
                    future.set_exception(exc)
                else:
                    future.set_result(response)
