"""Tests for repro.serve.app: routing, error mapping, live HTTP."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    ArtifactError,
    BadRequestError,
    ModelError,
    ServeError,
    UnitConversionError,
    UnitParseError,
    UnknownTermError,
)
from repro.serve import ServeApp, make_server, run_server, status_of

BODY = json.dumps(
    {
        "ingredients": [
            {"name": "gelatin", "quantity": "10 g"},
            {"name": "water", "quantity": "200 ml"},
        ],
        "description": "chilled and set until firm",
    }
).encode("utf-8")


@pytest.fixture(scope="module")
def app(engine):
    return ServeApp(engine)


class TestStatusOf:
    @pytest.mark.parametrize(
        ("error", "status"),
        [
            (BadRequestError("x"), 400),
            (UnitParseError("x"), 400),
            (UnitConversionError("x"), 400),
            (UnknownTermError("x"), 404),
            (ServeError("x"), 503),
            (ArtifactError("x"), 503),
            (ModelError("x"), 500),
        ],
    )
    def test_mapping(self, error, status):
        assert status_of(error) == status


class TestRouting:
    def test_texture_round_trip(self, app):
        status, payload = app.handle("POST", "/v1/texture", BODY)
        assert status == 200
        assert payload["status"] in ("ok", "review")
        assert sum(payload["topic_distribution"]) == pytest.approx(1.0)

    def test_healthz(self, app, bundle):
        status, payload = app.handle("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"]["fingerprint"] == bundle.fingerprint

    def test_metricz(self, app):
        app.handle("POST", "/v1/texture", BODY)
        status, payload = app.handle("GET", "/metricz")
        assert status == 200
        assert payload["metrics"]["serve.requests"]["value"] >= 1

    def test_term_profile(self, app, engine):
        surface = engine.vocabulary[0]
        status, payload = app.handle("GET", f"/v1/terms/{surface}")
        assert status == 200
        assert payload["surface"] == surface

    def test_query_string_ignored(self, app):
        status, _ = app.handle("GET", "/healthz?verbose=1")
        assert status == 200

    def test_unknown_route_404(self, app):
        status, payload = app.handle("GET", "/v2/everything")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_wrong_method_405(self, app):
        status, payload = app.handle("GET", "/v1/texture", b"")
        assert status == 405
        assert payload["error"]["type"] == "MethodNotAllowed"

    def test_term_post_405(self, app):
        status, _ = app.handle("POST", "/v1/terms/x", b"")
        assert status == 405


class TestErrorPaths:
    def test_malformed_json_400(self, app):
        status, payload = app.handle("POST", "/v1/texture", b"{nope")
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"

    def test_empty_ingredients_400(self, app):
        status, _ = app.handle(
            "POST", "/v1/texture", b'{"ingredients": []}'
        )
        assert status == 400

    def test_duplicate_ingredient_400_names_it(self, app):
        body = json.dumps(
            {
                "ingredients": [
                    {"name": "gelatin", "quantity": "0.0g"},
                    {"name": "gelatin", "quantity": "0.0g"},
                ]
            }
        ).encode("utf-8")
        status, payload = app.handle("POST", "/v1/texture", body)
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"
        assert "'gelatin'" in payload["error"]["message"]

    def test_unknown_term_404_with_clean_message(self, app):
        body = json.dumps(
            {
                "ingredients": [{"name": "gelatin", "quantity": "10 g"}],
                "terms": ["zzz-not-a-term"],
            }
        ).encode("utf-8")
        status, payload = app.handle("POST", "/v1/texture", body)
        assert status == 404
        assert payload["error"]["type"] == "UnknownTermError"
        # KeyError-derived messages must not arrive repr-quoted.
        assert not payload["error"]["message"].startswith(("'", '"'))

    def test_unknown_term_path_404(self, app):
        status, payload = app.handle("GET", "/v1/terms/zzz-not-a-term")
        assert status == 404

    def test_empty_term_path_400(self, app):
        status, payload = app.handle("GET", "/v1/terms/")
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"


class TestFoldInTokenCap:
    """A request may fold in at most 256 in-vocabulary tokens."""

    @staticmethod
    def body(surface, in_description, in_terms):
        return json.dumps(
            {
                "ingredients": {"gelatin": "10 g", "water": "200 ml"},
                "description": " ".join([surface] * in_description),
                "terms": [surface] * in_terms,
            }
        ).encode("utf-8")

    def test_256_tokens_are_served(self, app, engine):
        body = self.body(engine.vocabulary[0], 6, 250)
        status, payload = app.handle("POST", "/v1/texture", body)
        assert status == 200
        assert payload["status"] in ("ok", "review")

    def test_257_tokens_are_400(self, app, engine):
        """Description tokens and explicit terms count together."""
        body = self.body(engine.vocabulary[0], 7, 250)
        status, payload = app.handle("POST", "/v1/texture", body)
        assert status == 400
        assert payload["error"]["type"] == "BadRequestError"
        assert "257" in payload["error"]["message"]


class TestLiveServer:
    @pytest.fixture(scope="class")
    def base_url(self, engine):
        server = make_server(engine, port=0)
        thread = run_server(server)
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(5.0)

    def test_post_texture_over_http(self, base_url, engine):
        request = urllib.request.Request(
            f"{base_url}/v1/texture",
            data=BODY,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            payload = json.loads(response.read())
        assert payload["model_fingerprint"] == engine.bundle.fingerprint

    def test_http_matches_in_process(self, base_url, engine, app):
        request = urllib.request.Request(
            f"{base_url}/v1/texture",
            data=BODY,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            over_http = json.loads(response.read())
        _, in_process = app.handle("POST", "/v1/texture", BODY)
        assert over_http == in_process

    def test_error_status_over_http(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/v1/texture", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["type"] == (
            "BadRequestError"
        )

    def test_oversized_content_length_400(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/v1/texture", data=b"{}", method="POST"
        )
        request.add_header("Content-Length", str(1 << 30))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
