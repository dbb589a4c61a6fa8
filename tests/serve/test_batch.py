"""Tests for repro.serve.batch: batched == sequential, lifecycle, no window."""

from __future__ import annotations

import threading

import pytest

from repro.cli import _build_parser
from repro.errors import ServeError, UnknownTermError
from repro.obs import metrics
from repro.serve import MicroBatcher
from repro.serve.schemas import TextureRequest

REQUESTS = [
    TextureRequest(
        ingredients=(("gelatin", "10 g"), ("water", "200 ml")),
        description="chilled and set until firm",
    ),
    TextureRequest(
        ingredients=(("kanten", "4 g"), ("water", "300 ml")),
        description="boiled then cooled into a crisp jelly",
    ),
    TextureRequest(
        ingredients=(("agar", "6 g"), ("milk", "250 ml")),
        description="a soft milk pudding",
    ),
]


@pytest.fixture
def batcher(engine):
    instance = MicroBatcher(
        engine, max_batch=4, max_wait_s=0.01, backend="thread", n_workers=2
    )
    yield instance
    instance.close()


class TestBatchedEqualsSequential:
    def test_bit_identical_posteriors(self, engine, batcher):
        """The core batching guarantee: neighbours don't change answers."""
        sequential = [engine.infer(r) for r in REQUESTS]
        futures = [batcher.submit(r) for r in REQUESTS * 2]
        batched = [f.result(30.0) for f in futures]
        for i, response in enumerate(batched):
            expected = sequential[i % len(REQUESTS)]
            assert response == expected
            assert (
                response.topic_distribution == expected.topic_distribution
            )
            assert response.seed == expected.seed

    def test_serial_backend_same_answers(self, engine):
        serial = MicroBatcher(engine, max_batch=4, backend="serial")
        try:
            assert serial.infer(REQUESTS[0]) == engine.infer(REQUESTS[0])
        finally:
            serial.close()

    def test_bad_request_does_not_poison_neighbours(self, engine, batcher):
        """A failing request resolves to its error; neighbours succeed."""
        bad = TextureRequest(
            ingredients=(("gelatin", "10 g"),), terms=("zzz-not-a-term",)
        )
        futures = [batcher.submit(r) for r in (REQUESTS[0], bad, REQUESTS[1])]
        assert futures[0].result(30.0) == engine.infer(REQUESTS[0])
        with pytest.raises(UnknownTermError):
            futures[1].result(30.0)
        assert futures[2].result(30.0) == engine.infer(REQUESTS[1])


class TestLifecycle:
    def test_rejects_bad_config(self, engine):
        with pytest.raises(ServeError):
            MicroBatcher(engine, max_batch=0)
        with pytest.raises(ServeError):
            MicroBatcher(engine, max_wait_s=-1.0)

    def test_close_is_idempotent(self, engine):
        batcher = MicroBatcher(engine, max_batch=2)
        batcher.close()
        batcher.close()
        assert batcher.closed

    def test_submit_after_close_raises(self, engine):
        batcher = MicroBatcher(engine, max_batch=2)
        batcher.close()
        with pytest.raises(ServeError, match="closed"):
            batcher.submit(REQUESTS[0])

    def test_pending_work_drains_on_close(self, engine):
        batcher = MicroBatcher(engine, max_batch=8, max_wait_s=0.5)
        futures = [batcher.submit(r) for r in REQUESTS]
        batcher.close()
        for request, future in zip(REQUESTS, futures):
            assert future.result(30.0) == engine.infer(request)

    def test_batch_size_metric_observed(self, engine):
        histogram = metrics.registry.histogram("serve.batch_size")
        before = histogram.count
        batcher = MicroBatcher(engine, max_batch=4)
        try:
            batcher.infer(REQUESTS[0])
        finally:
            batcher.close()
        assert histogram.count > before


class TestNoWindowByDefault:
    def test_defaults_are_zero(self, engine):
        batcher = MicroBatcher(engine)
        try:
            assert batcher.max_wait_s == 0
        finally:
            batcher.close()
        assert _build_parser().parse_args(["serve"]).batch_wait_ms == 0

    def test_lone_request_never_waits_for_company(self, engine):
        """The collector takes what is queued without a timed ``get``."""
        batcher = MicroBatcher(engine)
        calls: list[tuple[bool, float | None]] = []
        get = batcher._queue.get

        def recorded_get(block=True, timeout=None):
            calls.append((block, timeout))
            return get(block, timeout)

        batcher._queue.get = recorded_get
        try:
            assert batcher.infer(REQUESTS[0]) == engine.infer(REQUESTS[0])
        finally:
            batcher.close()
        assert calls
        assert not [
            call for call in calls
            if call[0] and call[1] is not None and call[1] > 0
        ]

    def test_requests_queued_during_a_batch_form_the_next(
        self, engine, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        infer = engine.infer

        def held_infer(request):
            if not entered.is_set():
                entered.set()
                release.wait(30.0)
            return infer(request)

        monkeypatch.setattr(engine, "infer", held_infer)
        batcher = MicroBatcher(engine)
        sizes: list[int] = []
        run_batch = batcher._run_batch

        def recorded_run_batch(batch):
            sizes.append(len(batch))
            run_batch(batch)

        batcher._run_batch = recorded_run_batch
        try:
            first = batcher.submit(REQUESTS[0])
            assert entered.wait(30.0)
            rest = [batcher.submit(r) for r in REQUESTS]
            release.set()
            answers = [f.result(30.0) for f in (first, *rest)]
        finally:
            release.set()
            batcher.close()
        assert sizes == [1, 3]
        assert answers == [infer(r) for r in (REQUESTS[0], *REQUESTS)]
