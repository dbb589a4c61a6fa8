"""Tests for /metricz: golden JSON key shape + Prometheus exposition."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.obs import prom
from repro.serve import ServeApp, make_server, run_server

BODY = json.dumps(
    {
        "ingredients": [
            {"name": "gelatin", "quantity": "10 g"},
            {"name": "water", "quantity": "200 ml"},
        ],
        "description": "chilled and set until firm",
    }
).encode("utf-8")

#: The contract consumers scrape against; a key rename is a break.
ENVELOPE_KEYS = {"schema_version", "metrics", "uptime_seconds"}
COUNTER_KEYS = {"kind", "value"}
GAUGE_KEYS = {"kind", "value"}
HISTOGRAM_KEYS = {
    "kind", "count", "total", "mean", "min", "max", "bounds",
    "bucket_counts",
}
KIND_KEYS = {
    "counter": COUNTER_KEYS,
    "gauge": GAUGE_KEYS,
    "histogram": HISTOGRAM_KEYS,
}


@pytest.fixture(scope="module")
def app(engine):
    instance = ServeApp(engine)
    # Warm the metrics; the repeat is answered from the answer cache.
    instance.handle("POST", "/v1/texture", BODY)
    instance.handle("POST", "/v1/texture", BODY)
    return instance


class TestJsonShape:
    def test_envelope_keys_are_golden(self, app):
        status, payload = app.handle("GET", "/metricz")
        assert status == 200
        assert set(payload) == ENVELOPE_KEYS

    def test_every_metric_matches_its_kind_shape(self, app):
        _, payload = app.handle("GET", "/metricz")
        assert payload["metrics"], "warm app must expose metrics"
        for name, snap in payload["metrics"].items():
            expected = KIND_KEYS.get(snap.get("kind"))
            assert expected is not None, f"{name}: unknown kind"
            assert set(snap) == expected, f"{name}: snapshot keys drifted"

    def test_serve_metrics_present(self, app):
        _, payload = app.handle("GET", "/metricz")
        names = set(payload["metrics"])
        assert {
            "serve.requests", "serve.latency_seconds", "serve.answer_cache_hits"
        } <= names
        assert payload["metrics"]["serve.answer_cache_hits"]["value"] >= 1

    def test_payload_is_json_serialisable(self, app):
        _, payload = app.handle("GET", "/metricz")
        json.dumps(payload)

    def test_explicit_json_format_matches_default(self, app):
        _, explicit = app.handle("GET", "/metricz?format=json")
        assert set(explicit) == ENVELOPE_KEYS


class TestPrometheusFormat:
    def test_exposition_parses_cleanly(self, app):
        status, payload = app.handle("GET", "/metricz?format=prometheus")
        assert status == 200
        assert isinstance(payload, str)
        samples = prom.parse(payload)
        assert samples, "exposition must carry samples"
        names = {s.name for s in samples}
        assert "serve_requests_total" in names
        assert "serve_latency_seconds_bucket" in names

    def test_fingerprint_label_on_every_sample(self, app, bundle):
        _, payload = app.handle("GET", "/metricz?format=prometheus")
        for sample in prom.parse(payload):
            assert sample.labels["fingerprint"] == bundle.fingerprint

    def test_histogram_buckets_cumulative(self, app):
        _, payload = app.handle("GET", "/metricz?format=prometheus")
        samples = prom.parse(payload)
        buckets = [
            s for s in samples if s.name == "serve_latency_seconds_bucket"
        ]
        finite = [s.value for s in buckets if s.labels["le"] != "+Inf"]
        assert finite == sorted(finite)
        (inf,) = [s for s in buckets if s.labels["le"] == "+Inf"]
        (count,) = [
            s for s in samples if s.name == "serve_latency_seconds_count"
        ]
        assert inf.value == count.value

    def test_unknown_format_400(self, app):
        status, payload = app.handle("GET", "/metricz?format=xml")
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"

    def test_last_format_value_wins(self, app):
        status, payload = app.handle(
            "GET", "/metricz?format=json&format=prometheus"
        )
        assert status == 200
        assert isinstance(payload, str)


class TestOverHttp:
    @pytest.fixture(scope="class")
    def base_url(self, engine):
        server = make_server(engine, port=0)
        thread = run_server(server)
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(5.0)

    def test_prometheus_content_type(self, base_url):
        with urllib.request.urlopen(
            f"{base_url}/metricz?format=prometheus", timeout=30
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == prom.CONTENT_TYPE
            prom.parse(response.read().decode("utf-8"))

    def test_json_content_type_unchanged(self, base_url):
        with urllib.request.urlopen(
            f"{base_url}/metricz", timeout=30
        ) as response:
            assert response.headers["Content-Type"] == "application/json"
            json.loads(response.read())
