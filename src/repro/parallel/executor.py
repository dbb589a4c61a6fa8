"""Backend-pluggable task execution with seeded RNG fan-out.

Every parallelisable stage in this package (Gibbs restarts, collapsed
cross-check chains, benchmark repetitions) has the same shape: N
independent tasks, each needing its own reproducible random stream,
whose results are consumed in task order. This module provides that
shape once, behind three interchangeable backends:

* ``serial``  — a plain loop in the calling process (the default, and
  the reference semantics every other backend must reproduce);
* ``thread``  — a :class:`~concurrent.futures.ThreadPoolExecutor`; wins
  when tasks release the GIL (BLAS-heavy numpy) or block on I/O;
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  wins for Python-heavy work such as the per-token Gibbs loops, at the
  cost of pickling the task payloads.

Determinism is backend-independent by construction: child generators are
spawned from the caller's RNG *before* dispatch via
:func:`repro.rng.spawn`, so task ``i`` sees the same stream no matter
where (or in what order) it runs, and results are always returned in
submission order. A fitted model is therefore bit-identical across
backends.

Robustness: sandboxes and restricted containers routinely lack working
``fork``/semaphore support, payloads can turn out to be unpicklable, and
a batch can exceed its ``timeout``. When ``fallback_to_serial`` is on
(the default), all three degrade to running the affected tasks serially
in the caller — same results, reduced parallelism — instead of failing
the experiment. Exceptions raised by the task body itself are *not*
swallowed by the fallback; they propagate to the caller in task order.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ParallelError
from repro.obs import metrics, trace
from repro.obs.log import get_logger
from repro.rng import RngLike, spawn

logger = get_logger("repro.parallel")

#: Recognised backend names ("auto" resolves at call time).
BACKENDS = ("serial", "thread", "process", "auto")

#: A task body: ``fn(payload, rng) -> result``. For the process backend
#: it must be picklable (a module-level function or a partial of one).
TaskFn = Callable[[Any, np.random.Generator], Any]

#: Sentinel marking tasks the pool never delivered (``None`` is a valid
#: task result, so a dedicated marker is required).
_PENDING = object()


@dataclass(frozen=True)
class ParallelConfig:
    """How a batch of independent tasks should be executed.

    ``backend="auto"`` picks ``process`` on multi-core hosts and
    ``serial`` otherwise. ``timeout`` bounds the wall-clock of the whole
    batch (seconds); on expiry the unfinished tasks are recomputed
    serially (identical results — the RNG streams were fixed up front)
    rather than lost, unless ``fallback_to_serial`` is off.
    """

    backend: str = "serial"
    max_workers: int | None = None
    timeout: float | None = None
    fallback_to_serial: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ParallelError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ParallelError("max_workers must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ParallelError("timeout must be positive")

    def resolve_backend(self) -> str:
        """The concrete backend ``auto`` maps to on this host."""
        if self.backend != "auto":
            return self.backend
        return "process" if (os.cpu_count() or 1) > 1 else "serial"

    def resolve_workers(self, n_tasks: int) -> int:
        """Worker count for a batch of ``n_tasks``."""
        limit = self.max_workers or os.cpu_count() or 1
        return max(1, min(limit, n_tasks))


def run_tasks(
    fn: TaskFn,
    payloads: Sequence[Any],
    rng: RngLike = None,
    config: ParallelConfig | None = None,
) -> list[Any]:
    """Run ``fn(payload, child_rng)`` for every payload; ordered results.

    One child generator per task is spawned from ``rng`` up front, so the
    result list is a pure function of ``(fn, payloads, rng)`` regardless
    of backend. Backend failures (no multiprocessing support, pickling
    errors, timeouts) fall back to serial execution of the affected
    tasks when ``config.fallback_to_serial`` is set; otherwise they
    raise :class:`~repro.errors.ParallelError`.
    """
    config = config or ParallelConfig()
    payloads = list(payloads)
    if not payloads:
        return []
    rngs = spawn(rng, len(payloads))
    backend = config.resolve_backend()
    if backend == "serial" or len(payloads) == 1:
        with trace.span("run-tasks", backend="serial", n_tasks=len(payloads)):
            return [
                _run_timed(fn, payload, child)
                for payload, child in zip(payloads, rngs)
            ]
    with trace.span("run-tasks", backend=backend, n_tasks=len(payloads)):
        return _run_pooled(fn, payloads, rngs, backend, config)


def _observe_task(wait_s: float | None, run_s: float) -> None:
    """Feed one task's wait/run wall-clock into the executor metrics."""
    registry = metrics.registry
    if wait_s is not None:
        registry.histogram("executor.task_wait_seconds").observe(wait_s)
    registry.histogram("executor.task_run_seconds").observe(run_s)


def _run_timed(fn: TaskFn, payload: Any, rng: np.random.Generator) -> Any:
    """Run one task in the caller, feeding the run-time histogram."""
    started = time.perf_counter()
    result = fn(payload, rng)
    _observe_task(None, time.perf_counter() - started)
    return result


def _guarded(
    fn: TaskFn,
    capture_sweep_every: int | None,
    submitted_unix: float,
    payload: Any,
    rng: np.random.Generator,
) -> tuple:
    """Worker shim: capture task-body exceptions as values.

    Anything that escapes *this* function is then, by elimination, an
    infrastructure failure (pickling, broken pool, lost worker) and is
    safe to answer with a serial fallback.

    Alongside the ``("ok"|"err", value)`` outcome it ships a telemetry
    dict back to the caller: how long the task waited in the pool queue
    (wall clock since submission — the only clock processes share), how
    long its body ran, and — when ``capture_sweep_every`` is set (the
    process backend under an active trace) — the span/event records the
    task produced, for the parent to :func:`repro.obs.trace.replay`.
    The thread backend passes ``None``: its workers share the parent's
    live tracer and emit directly.
    """
    telemetry: dict[str, Any] = {
        "wait_s": max(0.0, time.time() - submitted_unix)
    }
    started = time.perf_counter()
    try:
        if capture_sweep_every is not None:
            with trace.capture(sweep_every=capture_sweep_every) as records:
                result = fn(payload, rng)
            telemetry["trace"] = records
        else:
            result = fn(payload, rng)
        telemetry["run_s"] = time.perf_counter() - started
        return ("ok", result, telemetry)
    except Exception as exc:  # noqa: BLE001 - re-raised in the caller
        telemetry["run_s"] = time.perf_counter() - started
        return ("err", exc, telemetry)


def _run_pooled(
    fn: TaskFn,
    payloads: list[Any],
    rngs: list[np.random.Generator],
    backend: str,
    config: ParallelConfig,
) -> list[Any]:
    """Dispatch to a thread/process pool with serial fallback."""
    outcomes: list[Any] = [_PENDING] * len(payloads)
    capture_every = (
        trace.sweep_interval()
        if backend == "process" and trace.is_enabled()
        else None
    )
    body = functools.partial(_guarded, fn, capture_every, time.time())
    workers = config.resolve_workers(len(payloads))
    pool: concurrent.futures.Executor | None
    try:
        if backend == "thread":
            pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
        else:
            # Pickle the task function here, before any pool exists. Left
            # to the pool's feeder thread, a pickling failure races the
            # cancel_futures shutdown below: CPython 3.11 can then drop
            # the failed work item from the wrong pending-items table, so
            # the pool's manager thread waits forever and blocks
            # interpreter exit.
            pickle.dumps(body)
            # The spawn start method: fork-based workers inherit whatever
            # locks the parent's threads held at fork time (pytest
            # capture, logging, BLAS pools…) and can deadlock; spawned
            # workers start clean. Tasks must be picklable either way.
            import multiprocessing

            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        _backend_failure(config, f"{backend} backend failed: {exc!r}", exc)
        pool = None
    except (OSError, ImportError, ValueError) as exc:
        _backend_failure(config, f"cannot start {backend} pool: {exc!r}", exc)
        pool = None
    if pool is not None:
        try:
            futures = {
                pool.submit(body, payload, child): i
                for i, (payload, child) in enumerate(zip(payloads, rngs))
            }
            for future in concurrent.futures.as_completed(
                futures, timeout=config.timeout
            ):
                outcomes[futures[future]] = future.result()
        except (concurrent.futures.TimeoutError, TimeoutError) as exc:
            _backend_failure(
                config, f"batch timed out after {config.timeout}s", exc
            )
        except Exception as exc:  # noqa: BLE001 - task errors never get here
            # _guarded converts every task-body exception into a value,
            # so whatever reached us is infrastructure: unpicklable
            # payloads, a worker killed by the OS, a broken pool…
            _backend_failure(config, f"{backend} backend failed: {exc!r}", exc)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    # Recompute whatever the pool did not deliver. The child streams were
    # fixed before dispatch, so recomputation is bit-identical to what
    # the worker would have produced.
    results: list[Any] = []
    max_wait_s = 0.0
    for i, outcome in enumerate(outcomes):
        if outcome is _PENDING:
            results.append(_run_timed(fn, payloads[i], rngs[i]))
            continue
        status, value, telemetry = outcome
        wait_s = telemetry.get("wait_s")
        if wait_s is not None and wait_s > max_wait_s:
            max_wait_s = wait_s
        _observe_task(wait_s, telemetry.get("run_s", 0.0))
        records = telemetry.get("trace")
        if records:
            trace.replay(records)
        if status == "err":
            raise value
        results.append(value)
    # Worst queueing delay of the batch: the straggler signal (one slow
    # task stalls the whole batch), distinct from the per-task wait
    # histogram.
    metrics.registry.gauge("executor.batch_max_wait_seconds").set(max_wait_s)
    return results


def _backend_failure(
    config: ParallelConfig, message: str, exc: Exception
) -> None:
    """Log-and-continue or raise, per ``fallback_to_serial``."""
    if not config.fallback_to_serial:
        raise ParallelError(message) from exc
    metrics.registry.counter("executor.fallback").inc()
    trace.event("executor.fallback", reason=message)
    logger.warning("%s; falling back to serial execution", message)
