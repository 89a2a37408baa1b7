"""Stdlib HTTP frontend for the serving API (no optional dependencies).

A ``ThreadingHTTPServer`` that parses JSON bodies and hands every request to
:meth:`repro.serving.api.v1.V1Api.dispatch` — the exact dispatcher the
FastAPI app delegates to — so the two frontends cannot drift.  Used by
``python -m repro serve`` when FastAPI is not installed, by the CI smoke
script, and by the API tests (which exercise the full HTTP round trip with
``http.client``).

It speaks HTTP/1.1 with persistent connections: one thread serves a
connection's requests in turn until the client closes it, sends
``Connection: close``, or stays idle for :data:`KEEPALIVE_TIMEOUT_S`.  Sockets
run with ``TCP_NODELAY`` and a reply leaves as **one** write (status line,
headers and body), so a small reply is never held back by Nagle's algorithm
waiting for the client's delayed ACK.  A persistent connection is only as
good as its framing: a request whose body cannot be delimited (``POST``
without ``Content-Length``, a value that is not a plain non-negative integer,
``Transfer-Encoding: chunked``, a body shorter than announced) and anything
the stdlib parser rejects (malformed request line, over-long or too many
headers, unknown method) gets a structured ``{"error": {type, detail}}`` 4xx
with ``Connection: close``, and the connection is closed.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.serving.api.v1 import V1Api

#: seconds a kept-alive connection may stay silent (between requests or in the
#: middle of one) before its thread closes it
KEEPALIVE_TIMEOUT_S = 15.0


class _Handler(BaseHTTPRequestHandler):
    api: V1Api  # set on the subclass built in FallbackServer

    protocol_version = "HTTP/1.1"  # persistent connections
    disable_nagle_algorithm = True  # TCP_NODELAY
    timeout = KEEPALIVE_TIMEOUT_S

    # Serving must stay quiet under load-generating benchmarks.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _read_body(self):
        """The request body (``b""`` when there is none), or ``None`` after
        replying 4xx to one whose end cannot be found."""
        if self.headers.get("Transfer-Encoding"):
            self._refuse(
                411, "length_required", "Transfer-Encoding is not supported; send Content-Length"
            )
            return None
        announced = self.headers.get("Content-Length")
        if announced is None:
            if self.command == "GET":
                return b""
            self._refuse(411, "length_required", "Content-Length is missing")
            return None
        announced = announced.strip()
        if not (announced.isascii() and announced.isdigit()):  # int() takes "-1", "1_0"
            self._refuse(
                400,
                "bad_content_length",
                f"Content-Length is not a non-negative integer: {announced!r}",
            )
            return None
        length = int(announced)
        raw = self.rfile.read(length)
        if len(raw) != length:
            self._refuse(
                400, "incomplete_body", f"body ended after {len(raw)} of {length} bytes"
            )
            return None
        return raw

    def _respond(self) -> None:
        raw = self._read_body()
        if raw is None:
            return
        payload = None
        if raw:
            try:
                payload = json.loads(raw)
            except ValueError:
                self._write(400, {"error": {"type": "bad_json", "detail": "body is not JSON"}})
                return
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query))
        try:
            status, body = self.api.dispatch(self.command, split.path, query, payload)
        except Exception as exc:  # internal bug: structured 500, keep serving
            status, body = 500, {
                "error": {"type": "internal", "detail": f"{type(exc).__name__}: {exc}"}
            }
        self._write(status, body)

    def _refuse(self, status: int, error_type: str, detail: str) -> None:
        """Reply to a request whose framing is broken; the bytes that follow
        it cannot be trusted to start a request, so the connection closes."""
        self.close_connection = True
        self._write(status, {"error": {"type": error_type, "detail": detail}})

    def send_error(self, code, message=None, explain=None):
        # What the stdlib parser rejects, in the API's error shape instead of HTML.
        self._refuse(int(code), "bad_request", message or HTTPStatus(code).phrase)

    def _write(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        # One write: headers and body must not leave as two small segments.
        self.wfile.write(head.encode("latin-1") + data)

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._respond()

    def do_POST(self):  # noqa: N802
        self._respond()


class FallbackServer:
    """Threaded HTTP server over a :class:`V1Api`; ``port=0`` picks a free one."""

    def __init__(self, api: V1Api, *, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"api": api})
        self.api = api
        self._server = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def start_background(self) -> "FallbackServer":
        """Serve on a daemon thread (tests and the smoke script)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="serving-http", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.api.engine.close()
