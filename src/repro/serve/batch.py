"""Micro-batching of fold-in passes for concurrent requests.

HTTP handler threads never run Gibbs passes themselves: they submit
requests to a :class:`MicroBatcher` and block on a future. A single
collector thread drains the queue and executes up to ``max_batch``
queued requests as one group through :func:`repro.parallel.run_tasks`.
By default it waits for nobody: a lone request runs at once, and the
requests that arrive while a batch runs form the next batch — so under
load the executor amortises dispatch over whole batches instead of
thrashing one request at a time. A positive ``max_wait_s`` opts into a
window that holds each batch open for later arrivals.

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
import time
from concurrent.futures import Future
from typing import Any

from repro.errors import ReproError, ServeError
from repro.obs import metrics, trace
from repro.parallel import ParallelConfig, run_tasks
from repro.serve.engine import InferenceEngine
from repro.serve.schemas import TextureRequest, TextureResponse

#: One queued request: the parsed request plus the future its handler
#: thread is blocked on.
_Item = tuple[TextureRequest, "Future[TextureResponse]"]


def _fold_in_task(
    payload: tuple[InferenceEngine, TextureRequest],
    rng: Any,
) -> TextureResponse | ReproError:
    """Run one request's fold-in (module-level so pools can pickle it).

    The executor's spawned stream is unused: each request seeds its own
    stream from its content, which is what keeps batched and sequential
    execution bit-identical. Per-request failures are *returned* (not
    raised) so one bad request cannot poison its batch neighbours.
    """
    del rng  # results must be a pure function of the request content
    engine, request = payload
    try:
        return engine.infer(request)
    except ReproError as exc:
        return exc


class MicroBatcher:
    """A request queue draining into batched fold-in executions.

    A batch starts at the oldest queued request and collects more, up
    to ``max_batch``, until ``max_wait_s`` seconds after it started
    (default 0: only what is already queued, so a lone request never
    waits for company).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch: int = 8,
        max_wait_s: float = 0.0,
        backend: str = "serial",
        n_workers: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ServeError("max_wait_s must be >= 0")
        self.engine = engine
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._config = ParallelConfig(backend=backend, max_workers=n_workers)
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
        """Enqueue one request; resolve its future when the batch runs."""
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

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # -- collector ----------------------------------------------------------

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._drain_remaining()
                return
            batch = [item]
            deadline = time.monotonic() + self.max_wait_s
            stop = False
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                try:
                    extra = (
                        self._queue.get(timeout=remaining)
                        if remaining > 0
                        else self._queue.get_nowait()
                    )
                except queue.Empty:
                    break
                if extra is None:
                    stop = True
                    break
                batch.append(extra)
            self._run_batch(batch)
            if stop:
                self._drain_remaining()
                return

    def _drain_remaining(self) -> None:
        """Flush whatever was enqueued before the close sentinel."""
        leftovers: list[_Item] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                leftovers.append(item)
        if leftovers:
            self._run_batch(leftovers)

    def _run_batch(self, batch: list[_Item]) -> None:
        metrics.registry.gauge("serve.queue_depth").set(self._queue.qsize())
        metrics.registry.histogram("serve.batch_size").observe(len(batch))
        with trace.span("serve.batch", size=len(batch)):
            payloads = [(self.engine, request) for request, _ in batch]
            try:
                results = run_tasks(
                    _fold_in_task, payloads, rng=0, config=self._config
                )
            except Exception as exc:  # repro: noqa[EXC001] - a backend failure must reach every blocked handler thread, whatever its type
                for _, future in batch:
                    future.set_exception(exc)
                return
        for (_, future), result in zip(batch, results):
            if isinstance(result, ReproError):
                future.set_exception(result)
            else:
                future.set_result(result)
