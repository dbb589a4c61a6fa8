"""Tests for ServeApp's answer cache: repeated bodies, same bytes.

A ``POST /v1/texture`` answer is a pure function of the body and the
model, so :class:`~repro.serve.app.ServeApp` keeps successful answers by
the digest of the raw body. These tests pin that a hit returns the
bytes an uncached fold-in returns, never reaches the parse, the batcher
or the engine, and that errors, ``top_terms`` and the bound behave.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.serve import saturate_requests
from repro.errors import ReproError
from repro.serve import MicroBatcher, ServeApp, status_of
from repro.serve import app as app_module
from repro.serve.engine import validate_request
from tests.serve.test_fuzz import bodies


def gel_body(grams: int, **extra) -> bytes:
    return json.dumps(
        {
            "ingredients": [
                {"name": "gelatin", "quantity": f"{grams} g"},
                {"name": "water", "quantity": "200 ml"},
            ],
            "description": "chilled and set until firm",
            **extra,
        }
    ).encode("utf-8")


def uncached(engine, body: bytes) -> tuple[int, str | None]:
    """The answer without any cache: status and, for a 200, JSON text."""
    try:
        response = engine.infer(validate_request(body))
    except ReproError as exc:
        return status_of(exc), None
    return 200, json.dumps(response.to_dict())


def assert_twice_equals_uncached(app: ServeApp, engine, body: bytes) -> None:
    """POST ``body`` twice: both answers are the uncached one, and only
    a 200 is stored."""
    stored = len(app._answers)
    status, expected = uncached(engine, body)
    first = app.handle("POST", "/v1/texture", body)
    second = app.handle("POST", "/v1/texture", body)
    assert first[0] == second[0] == status
    if status == 200:
        assert json.dumps(first[1]) == json.dumps(second[1]) == expected
    else:
        assert first[1] == second[1]
        assert first[1]["error"]["type"], first[1]
        assert len(app._answers) == stored


class CountingEngine:
    """An engine stand-in that counts the requests it folds in."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.calls = 0

    def infer(self, request):
        self.calls += 1
        return self.engine.infer(request)


class TableEngine:
    """An engine stand-in that answers from a request -> response table."""

    def __init__(self, table) -> None:
        self.table = table

    def infer(self, request):
        return self.table[request]


class CountingBatcher(MicroBatcher):
    """A batcher that counts the requests handed to it."""

    submitted = 0

    def submit(self, request):
        self.submitted += 1
        return super().submit(request)


@pytest.fixture(scope="module")
def shared_app(engine):
    """One app, and so one cache, for every body of the module."""
    return ServeApp(engine)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_bodies_twice_equal_the_uncached_answer(shared_app, engine, data):
    body = json.dumps(data.draw(bodies(engine.vocabulary))).encode("utf-8")
    assert_twice_equals_uncached(shared_app, engine, body)


def test_saturate_bodies_twice_equal_the_uncached_answer(shared_app, engine):
    requests = saturate_requests(0, 100)
    assert len({r.key for r in requests}) < len(requests)
    for request in requests:
        assert_twice_equals_uncached(shared_app, engine, request.body)


def test_a_hit_skips_the_parse_the_batcher_and_the_engine(engine, monkeypatch):
    parsed = []

    def counting_validate(body):
        parsed.append(body)
        return validate_request(body)

    monkeypatch.setattr(app_module, "validate_request", counting_validate)
    counting = CountingEngine(engine)
    batcher = CountingBatcher(counting)
    try:
        app = ServeApp(counting, batcher=batcher)
        first = app.handle("POST", "/v1/texture", gel_body(10))
        assert (len(parsed), batcher.submitted, counting.calls) == (1, 1, 1)
        second = app.handle("POST", "/v1/texture", gel_body(10))
        assert (len(parsed), batcher.submitted, counting.calls) == (1, 1, 1)
    finally:
        batcher.close()
    assert first == second


@pytest.mark.parametrize(
    ("body", "status"),
    [
        (json.dumps({"ingredients": []}).encode("utf-8"), 400),
        (gel_body(10, terms=["zzz-not-a-term"]), 404),
    ],
)
def test_an_error_is_not_stored_and_repeats(engine, body, status):
    counting = CountingEngine(engine)
    app = ServeApp(counting)
    answers = [app.handle("POST", "/v1/texture", body) for _ in range(2)]
    assert answers[0] == answers[1]
    assert answers[0][0] == status
    assert len(app._answers) == 0
    # A 404 is raised inside the fold-in, so each repeat re-runs it.
    assert counting.calls == (2 if status == 404 else 0)


def test_top_terms_gets_its_own_answer(engine):
    app = ServeApp(engine)
    short, long = gel_body(10, top_terms=3), gel_body(10, top_terms=5)
    for body, n_terms in ((short, 3), (long, 5), (short, 3), (long, 5)):
        status, payload = app.handle("POST", "/v1/texture", body)
        assert status == 200
        assert len(payload["predicted_terms"]) == n_terms
        assert json.dumps(payload) == uncached(engine, body)[1]
    assert len(app._answers) == 2


def test_the_least_recently_used_answer_is_evicted(engine, monkeypatch):
    monkeypatch.setattr(app_module, "ANSWER_CACHE_ENTRIES", 4)
    counting = CountingEngine(engine)
    app = ServeApp(counting)
    for grams in range(1, 5):
        app.handle("POST", "/v1/texture", gel_body(grams))
    app.handle("POST", "/v1/texture", gel_body(1))  # 1 is now the newest
    for grams in range(5, 8):
        app.handle("POST", "/v1/texture", gel_body(grams))
    assert counting.calls == 7
    assert len(app._answers) == 4
    # 2, 3 and 4 were evicted; 1, 5, 6 and 7 are still hits.
    for grams in (1, 5, 6, 7):
        app.handle("POST", "/v1/texture", gel_body(grams))
    assert counting.calls == 7
    app.handle("POST", "/v1/texture", gel_body(2))
    assert counting.calls == 8
    assert len(app._answers) == 4


def test_mutating_a_payload_does_not_change_the_next_hit(engine):
    app = ServeApp(engine)
    _, payload = app.handle("POST", "/v1/texture", gel_body(10))
    expected = json.dumps(payload)
    payload["status"] = "mutated"
    payload["topic_distribution"][0] = -1.0
    payload["predicted_terms"][0]["surface"] = "mutated"
    payload["predicted_terms"].clear()
    payload["linked_settings"].append(-1)
    _, again = app.handle("POST", "/v1/texture", gel_body(10))
    assert json.dumps(again) == expected


def test_handler_threads_share_one_cache(engine, monkeypatch):
    """8 threads cycle 6 bodies through a bound of 4 with a short switch
    interval: every answer is the uncached one and the bound holds.

    The engine answers from a table, so the threads spend their time in
    the cache rather than in fold-ins.
    """
    monkeypatch.setattr(app_module, "ANSWER_CACHE_ENTRIES", 4)
    posted = [gel_body(grams) for grams in range(1, 7)]
    table = {validate_request(b): engine.infer(validate_request(b)) for b in posted}
    expected = [json.dumps(table[validate_request(b)].to_dict()) for b in posted]
    app = ServeApp(TableEngine(table))
    errors: list[object] = []

    def client(offset: int) -> None:
        try:
            for i in range(1500):
                k = (offset + i) % len(posted)
                status, payload = app.handle("POST", "/v1/texture", posted[k])
                if status != 200 or json.dumps(payload) != expected[k]:
                    errors.append((k, status))
        except Exception as exc:  # repro: noqa[EXC001] - a race must fail the test, not end a thread unseen
            errors.append(repr(exc))

    threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(app._answers) <= 4
