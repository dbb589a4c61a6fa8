"""Tests for the HTTP transport of repro.serve: writes, sockets, errors.

These count what the server does on the wire (socket writes, accepted
connections, status lines) instead of timing it, so they hold on any
machine. The backlog test relies on Linux accept-queue behaviour.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.serve import ServeApp, make_server, run_server
from repro.serve.app import _Handler

BODIES = [
    json.dumps(
        {
            "ingredients": [
                {"name": gel, "quantity": f"{grams} g"},
                {"name": "water", "quantity": "200 ml"},
            ],
            "description": "chilled and set until firm",
        }
    ).encode("utf-8")
    for gel, grams in (
        ("gelatin", 10), ("kanten", 4), ("agar", 6), ("gelatin", 3),
        ("agar", 2),
    )
]
JSON_HEADERS = {"Content-Type": "application/json"}


@pytest.fixture
def server(engine):
    instance = make_server(engine, port=0)
    thread = run_server(instance)
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(5.0)
    assert not thread.is_alive()


@pytest.fixture
def server_sends(monkeypatch, server):
    """Each send/sendall on a server-side socket, as its TCP_NODELAY flag."""
    port = server.server_address[1]
    sends: list[int] = []

    def counted(name):
        original = getattr(socket.socket, name)

        def wrapper(sock, *args, **kwargs):
            # Accepted sockets share the listening port; clients' differ.
            if sock.getsockname()[1] == port:
                sends.append(
                    sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )
            return original(sock, *args, **kwargs)

        return wrapper

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name, counted(name))
    return sends


def _connect(server) -> http.client.HTTPConnection:
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


class TestOneWritePerReply:
    def test_keep_alive_replies_and_error_reply(self, server, server_sends):
        conn = _connect(server)
        try:
            for body in BODIES:
                conn.request(
                    "POST", "/v1/texture", body=body, headers=JSON_HEADERS
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            conn.request("PUT", "/v1/texture", body=b"{}")
            response = conn.getresponse()
            response.read()
            assert response.status == 501
        finally:
            conn.close()
        assert len(server_sends) == len(BODIES) + 1

    def test_accepted_sockets_disable_nagle(self, server, server_sends):
        conn = _connect(server)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
        finally:
            conn.close()
        assert server_sends
        assert all(server_sends)


class TestKeepAlive:
    def test_round_trip_on_one_connection(self, server, engine, monkeypatch):
        accepted = []
        get_request = server.get_request

        def counted_get_request():
            pair = get_request()
            accepted.append(pair[1])
            return pair

        monkeypatch.setattr(server, "get_request", counted_get_request)
        app = ServeApp(engine)
        conn = _connect(server)
        try:
            for body in BODIES:
                conn.request(
                    "POST", "/v1/texture", body=body, headers=JSON_HEADERS
                )
                response = conn.getresponse()
                expected = app.handle("POST", "/v1/texture", body)[1]
                assert response.read() == json.dumps(expected).encode()
        finally:
            conn.close()
        assert len(accepted) == 1


class TestListenBacklog:
    def test_burst_of_connects_completes(self, engine):
        """32 connects queue while nothing accepts; a backlog of 5 held 6."""
        server = make_server(engine, port=0)
        clients: list[socket.socket] = []
        try:
            for _ in range(32):
                try:
                    clients.append(
                        socket.create_connection(
                            server.server_address[:2], timeout=0.5
                        )
                    )
                except TimeoutError:
                    break
        finally:
            for client in clients:
                client.close()
            server.server_close()
        assert len(clients) == 32


class TestTransportErrors:
    def test_unsupported_method_uses_envelope(self, server):
        conn = _connect(server)
        try:
            conn.request(
                "PUT", "/v1/texture", body=b"{}", headers=JSON_HEADERS
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Connection") == "close"
        assert set(payload) == {"schema_version", "error"}
        assert payload["error"]["type"] == "NotImplemented"
        assert payload["error"]["message"]

    def test_head_reply_has_no_body(self, server):
        conn = _connect(server)
        try:
            conn.request("HEAD", "/healthz")
            response = conn.getresponse()
            assert response.read() == b""
        finally:
            conn.close()
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"

    def test_rejected_content_length_closes_connection(self, server):
        """The unread body must not be parsed as a next request."""
        pipelined = (
            b"POST /v1/texture HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 1073741824\r\n\r\n"
            + b"x" * 40
            + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        with socket.create_connection(
            server.server_address[:2], timeout=10
        ) as sock:
            sock.sendall(pipelined)
            reply = _read_to_eof(sock)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["type"] == "BadRequestError"


class TestReadTimeout:
    def test_stalled_body_is_disconnected(self, server, monkeypatch):
        assert _Handler.timeout == 30.0
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with socket.create_connection(
            server.server_address[:2], timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/texture HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100\r\n\r\n{\"ingredients\""
            )
            assert sock.recv(65536) == b""
