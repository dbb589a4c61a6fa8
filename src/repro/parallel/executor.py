"""Seeded task fan-out: a loop in the caller, or one process pool.

Every parallelisable stage in this package (Gibbs restarts, collapsed
cross-check chains) has the same shape: N independent tasks, each
needing its own reproducible random stream, whose results are consumed
in task order. :func:`run_tasks` provides that shape once:

* ``workers=1`` (the default) runs a plain loop in the calling process
  — the reference semantics;
* ``workers > 1`` runs a spawn-started
  :class:`~concurrent.futures.ProcessPoolExecutor` of
  ``min(workers, n_tasks)`` workers, at the cost of pickling the task
  payloads. The per-token Gibbs loops hold the GIL, so threads never
  beat the loop; separate processes do, on fits large enough to pay
  for the spawn.

Determinism does not depend on the worker count: child generators are
spawned from the caller's RNG *before* dispatch via
:func:`repro.rng.spawn`, so task ``i`` sees the same stream no matter
where (or in what order) it runs, and results are always returned in
submission order. A fitted model is therefore bit-identical for any
``workers``.

Robustness: sandboxes and restricted containers routinely lack working
semaphore support, and payloads can turn out to be unpicklable. Either
way the tasks the pool did not deliver are recomputed serially in the
caller — same results, reduced parallelism — instead of failing the
experiment. Exceptions raised by the task body itself are *not*
swallowed; they propagate to the caller in task order.
"""

from __future__ import annotations

import concurrent.futures
import functools
import pickle
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ParallelError
from repro.obs import metrics, trace
from repro.obs.log import get_logger
from repro.rng import RngLike, spawn

logger = get_logger("repro.parallel")

#: A task body: ``fn(payload, rng) -> result``. For ``workers > 1`` it
#: must be picklable (a module-level function or a partial of one).
TaskFn = Callable[[Any, np.random.Generator], Any]

#: Sentinel marking tasks the pool never delivered (``None`` is a valid
#: task result, so a dedicated marker is required).
_PENDING = object()


def run_tasks(
    fn: TaskFn,
    payloads: Sequence[Any],
    rng: RngLike = None,
    workers: int = 1,
) -> list[Any]:
    """Run ``fn(payload, child_rng)`` for every payload; ordered results.

    One child generator per task is spawned from ``rng`` up front, so the
    result list is a pure function of ``(fn, payloads, rng)`` whatever
    ``workers`` is. Tasks a process pool fails to deliver (no
    multiprocessing support, pickling errors, a lost worker) are
    recomputed serially in the caller.
    """
    if workers < 1:
        raise ParallelError("workers must be >= 1")
    payloads = list(payloads)
    if not payloads:
        return []
    rngs = spawn(rng, len(payloads))
    workers = min(workers, len(payloads))
    with trace.span("run-tasks", workers=workers, n_tasks=len(payloads)):
        if workers == 1:
            return [
                _run_timed(fn, payload, child)
                for payload, child in zip(payloads, rngs)
            ]
        return _run_pooled(fn, payloads, rngs, workers)


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
    capture_trace: bool,
    submitted_unix: float,
    payload: Any,
    rng: np.random.Generator,
) -> tuple:
    """Worker shim: capture task-body exceptions as values.

    Anything that escapes *this* function is then, by elimination, an
    infrastructure failure (pickling, broken pool, lost worker) and is
    safe to answer with serial recomputation.

    Alongside the ``("ok"|"err", value)`` outcome it ships a telemetry
    dict back to the caller: how long the task waited in the pool queue
    (wall clock since submission — the only clock processes share), how
    long its body ran, and — when ``capture_trace`` is set (the
    caller's trace is active) — the span/event records the task
    produced, for the parent to :func:`repro.obs.trace.replay`.
    """
    telemetry: dict[str, Any] = {
        "wait_s": max(0.0, time.time() - submitted_unix)
    }
    started = time.perf_counter()
    try:
        if capture_trace:
            with trace.capture() as records:
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
    workers: int,
) -> list[Any]:
    """Dispatch to a process pool; recompute undelivered tasks serially."""
    outcomes: list[Any] = [_PENDING] * len(payloads)
    body = functools.partial(_guarded, fn, trace.is_enabled(), time.time())
    pool: concurrent.futures.Executor | None = None
    try:
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
        # workers start clean.
        import multiprocessing

        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
        )
    except (
        pickle.PicklingError, AttributeError, TypeError,
        OSError, ImportError, ValueError,
    ) as exc:
        _fall_back(f"cannot start a process pool: {exc!r}")
    if pool is not None:
        try:
            futures = {
                pool.submit(body, payload, child): i
                for i, (payload, child) in enumerate(zip(payloads, rngs))
            }
            for future in concurrent.futures.as_completed(futures):
                outcomes[futures[future]] = future.result()
        except Exception as exc:  # noqa: BLE001 - task errors never get here
            # _guarded converts every task-body exception into a value,
            # so whatever reached us is infrastructure: unpicklable
            # payloads, a worker killed by the OS, a broken pool…
            _fall_back(f"process pool failed: {exc!r}")
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


def _fall_back(message: str) -> None:
    """Record a pool failure; the caller recomputes its tasks serially."""
    metrics.registry.counter("executor.fallback").inc()
    trace.event("executor.fallback", reason=message)
    logger.warning("%s; falling back to serial execution", message)
