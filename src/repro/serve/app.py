"""The HTTP face of the texture service — stdlib only.

Transport and logic are split so the logic is testable without
sockets: :class:`ServeApp` maps ``(method, path, body)`` to
``(status, JSON payload)`` — routing, error mapping, spans, metrics —
and the :class:`ThreadingHTTPServer` subclass below is a thin byte
shuffler around it: keep-alive connections, one buffered write per
reply on a TCP_NODELAY socket, and a read timeout.

Endpoints::

    POST /v1/texture      recipe -> fold-in posterior, terms, rheology
    GET  /v1/terms/{term} term -> topic/rheology profile
    GET  /healthz         liveness + model identity
    GET  /metricz         repro.obs metrics snapshot (JSON), or
                          Prometheus text with ?format=prometheus

Error contract: every :class:`~repro.errors.ReproError` family maps to
one HTTP status (see :func:`status_of`), and every non-2xx body carries
the uniform ``{"error": {"type", "message"}}`` envelope — including
requests ``http.server`` rejects before routing, such as a 501 for an
unsupported method.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, unquote

from repro.errors import (
    ArtifactError,
    BadRequestError,
    CorpusError,
    DictionaryError,
    ExperimentError,
    LinkageError,
    ModelError,
    ObservabilityError,
    ParallelError,
    ReproError,
    RheologyError,
    ServeError,
    StoreError,
    UnitConversionError,
    UnitParseError,
    UnknownIngredientError,
    UnknownTermError,
)
from repro.obs import metrics, prom, trace
from repro.obs.log import get_logger
from repro.serve.batch import MicroBatcher
from repro.serve.engine import InferenceEngine, validate_request
from repro.serve.schemas import MAX_BODY_BYTES, SCHEMA_VERSION, error_body

logger = get_logger("repro.serve")

#: Routes the service knows, for 404-vs-405 discrimination.
_ROUTES = {
    "/healthz": ("GET",),
    "/metricz": ("GET",),
    "/v1/texture": ("POST",),
}
_TERMS_PREFIX = "/v1/terms/"


#: Every ``ReproError`` family's HTTP status, most-derived first (so
#: ``BadRequestError`` wins over its ``ServeError`` base). EXC002 fails
#: lint if an error family in :mod:`repro.errors` is missing here —
#: list new families explicitly instead of leaning on the final 500.
_STATUS_BY_FAMILY: tuple[tuple[type[ReproError], int], ...] = (
    # client fault: malformed bodies, bad quantities, unknown inputs
    (BadRequestError, 400),
    (UnitParseError, 400),
    (UnitConversionError, 400),
    (UnknownIngredientError, 400),
    (UnknownTermError, 404),
    # service fault: store/bundle unavailability is retryable
    (ServeError, 503),
    (ArtifactError, 503),
    # library fault: a bug or bad deployment, never the client's doing
    (CorpusError, 500),
    (DictionaryError, 500),
    (ExperimentError, 500),
    (LinkageError, 500),
    (ModelError, 500),
    (ObservabilityError, 500),
    (ParallelError, 500),
    (RheologyError, 500),
    (StoreError, 500),
)


def status_of(exc: ReproError) -> int:
    """The HTTP status one ``repro`` error family maps to."""
    for family, status in _STATUS_BY_FAMILY:
        if isinstance(exc, family):
            return status
    return 500


class ServeApp:
    """Transport-free request handling over one warm engine."""

    def __init__(
        self, engine: InferenceEngine, batcher: MicroBatcher | None = None
    ) -> None:
        self.engine = engine
        self.batcher = batcher
        self.started_unix = time.time()

    # -- entry point ---------------------------------------------------------

    def handle(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict[str, Any] | str]:
        """Route one request; never raises for request-level failures.

        The payload is a JSON-ready dict for every route except the
        Prometheus exposition, which returns preformatted text (the
        transport layer switches ``Content-Type`` on the payload type).
        """
        path, _, query = path.partition("?")
        started = time.perf_counter()
        payload: dict[str, Any] | str
        with trace.span("serve.request", method=method, path=path) as span:
            try:
                status, payload = self._route(method, path, query, body)
            except ReproError as exc:
                status = status_of(exc)
                # str() on KeyError-derived errors repr-quotes the
                # message; read args[0] directly for a clean envelope.
                message = str(exc.args[0]) if exc.args else str(exc)
                payload = error_body(type(exc).__name__, message)
                metrics.registry.counter("serve.errors").inc()
                span.set(error_type=type(exc).__name__)
            span.set(status=status)
        elapsed = time.perf_counter() - started
        metrics.registry.counter("serve.requests").inc()
        metrics.registry.histogram("serve.latency_seconds").observe(elapsed)
        return status, payload

    # -- routing -------------------------------------------------------------

    def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> tuple[int, dict[str, Any] | str]:
        if path in _ROUTES:
            if method not in _ROUTES[path]:
                return 405, error_body(
                    "MethodNotAllowed", f"{path} accepts {_ROUTES[path]}"
                )
            if path == "/healthz":
                return 200, self._health()
            if path == "/metricz":
                return 200, self._metricz(query)
            return 200, self._texture(body)
        if path.startswith(_TERMS_PREFIX):
            if method != "GET":
                return 405, error_body(
                    "MethodNotAllowed", f"{_TERMS_PREFIX}{{term}} accepts GET"
                )
            surface = unquote(path[len(_TERMS_PREFIX):])
            if not surface or "/" in surface:
                raise BadRequestError(
                    "term path must be /v1/terms/{surface}"
                )
            return 200, self.engine.term_profile(surface).to_dict()
        return 404, error_body("NotFound", f"no route {method} {path}")

    # -- handlers ------------------------------------------------------------

    def _texture(self, body: bytes) -> dict[str, Any]:
        request = validate_request(body)
        if self.batcher is not None:
            response = self.batcher.infer(request)
        else:
            response = self.engine.infer(request)
        return response.to_dict()

    def _health(self) -> dict[str, Any]:
        from repro import __version__

        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "version": __version__,
            "model": self.engine.health(),
            "uptime_seconds": time.time() - self.started_unix,
        }

    def _metricz(self, query: str) -> dict[str, Any] | str:
        fmt = (parse_qs(query).get("format") or ["json"])[-1]
        if fmt == "prometheus":
            return prom.render(
                metrics.registry.snapshot(),
                labels={"fingerprint": self.engine.bundle.fingerprint},
            )
        if fmt != "json":
            raise BadRequestError(
                f"unknown metricz format {fmt!r} (json or prometheus)"
            )
        return {
            "schema_version": SCHEMA_VERSION,
            "metrics": metrics.registry.snapshot(),
            "uptime_seconds": time.time() - self.started_unix,
        }


class TextureServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServeApp`."""

    daemon_threads = True
    # socketserver's default listen backlog of 5 lets the kernel drop
    # the SYNs of a burst of concurrent connects, and each dropped
    # client retries only after a second.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], app: ServeApp) -> None:
        super().__init__(address, _Handler)
        self.app = app


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A buffered wfile sends each reply in one write: http.server
    # flushes it after every request, and finish() after send_error().
    # Sent as head then body with Nagle on, every kept-alive reply after
    # the first would wait ~40 ms for the client's delayed ACK.
    # TCP_NODELAY spares a reply longer than one segment (or than the
    # buffer) the same wait on its last partial segment.
    wbufsize = -1
    disable_nagle_algorithm = True
    # Seconds a socket read or write may block: a client that stalls
    # mid-body or idles on a kept-alive connection is disconnected
    # instead of pinning its handler thread.
    timeout = 30.0

    @property
    def _app(self) -> ServeApp:
        server = self.server
        assert isinstance(server, TextureServer)
        return server.app

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry a
            # next request: those bytes would be parsed as one.
            self._reply(
                400,
                error_body(
                    "BadRequestError",
                    f"Content-Length must be an integer in "
                    f"[0, {MAX_BODY_BYTES}]",
                ),
                close=True,
            )
            return
        body = self.rfile.read(length) if length else b""
        self._reply(*self._app.handle(method, self.path, body))

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer a request http.server rejects itself, in the envelope.

        Unsupported methods and malformed requests or headers never
        reach :class:`ServeApp`; the stdlib would answer them in HTML.
        """
        phrase, description = self.responses[code]
        self.log_error("code %d, message %s", code, message)
        self._reply(
            code,
            error_body(phrase.replace(" ", ""), message or description),
            close=True,
        )

    def _reply(
        self, status: int, payload: dict[str, Any] | str, close: bool = False
    ) -> None:
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = prom.CONTENT_TYPE
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if close:
            # send_header() also sets close_connection on this header.
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), format % args)


def make_server(
    engine: InferenceEngine,
    host: str = "127.0.0.1",
    port: int = 8321,
    batcher: MicroBatcher | None = None,
) -> TextureServer:
    """Build (but do not start) a server; ``port=0`` picks a free port."""
    return TextureServer((host, port), ServeApp(engine, batcher=batcher))


def run_server(server: TextureServer) -> threading.Thread:
    """Serve forever on a daemon thread; returns the thread (tests/bench)."""
    thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    thread.start()
    return thread
