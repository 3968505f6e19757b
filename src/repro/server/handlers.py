"""HTTP request handling for the scenario server.

One :class:`ScenarioRequestHandler` instance handles one connection on
a :class:`~http.server.ThreadingHTTPServer` thread: HTTP/1.1 keep-alive,
so a client may send many requests on it.  The handler is a
thin codec: it parses the wire request (the head with
:func:`repro.server.wire.read_head`), routes the raw body to the
:class:`~repro.server.app.ScenarioServer` application object (reached
via ``self.server.app``), and writes the application's
``(status, body, headers)`` verdict back in one send.  All policy --
JSON parsing, validation, caching, admission control, dispatch -- lives
in the application, where it is testable without sockets.

Routes::

    GET  /healthz     liveness: always 200 and cheap, even under load
    GET  /metrics     counters, cache hit rate, queue depth, latencies
    GET  /version     code version the cache keys are bound to
    GET  /registry    what can be requested (workloads, baselines, ...)
    POST /scenario    run (or serve from cache) one scenario

The ``X-Repro-Cache`` response header on POST /scenario says how the
body was produced: ``hit`` (served from the result cache), ``coalesced``
(another in-flight request for the same key computed it), or ``miss``
(computed fresh by a pool worker).
"""

from __future__ import annotations

import re
import time
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional, Tuple

from repro import __version__
from repro.fingerprint import canonical_json
from repro.server.scenario import SCHEMA
from repro.server.wire import HeadError, read_head

#: Upper bound on accepted request bodies: scenario documents are small;
#: anything bigger is a client error (or abuse), not a scenario.
MAX_BODY_BYTES = 1 << 20

#: Seconds a kept-alive connection may sit idle before the server closes
#: it, so an abandoned client cannot hold a handler thread forever.
IDLE_TIMEOUT_SECONDS = 30.0

_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


def error_body(message: str, **extra: Any) -> bytes:
    document: Dict[str, Any] = {"error": message, "schema": SCHEMA}
    document.update(extra)
    return (canonical_json(document) + "\n").encode("ascii")


def json_body(document: Dict[str, Any]) -> bytes:
    return (canonical_json(document) + "\n").encode("ascii")


class ScenarioRequestHandler(BaseHTTPRequestHandler):
    """Routes wire requests to ``self.server.app`` (a ScenarioServer)."""

    server_version = f"repro-scenario-server/{__version__}"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_SECONDS
    #: Buffered: ``handle_one_request`` flushes a reply as one send.
    wbufsize = 1 << 16
    #: A reply past the buffer is several sends; with Nagle on, a later
    #: one waits for the client's delayed ACK of the first (~40 ms).
    disable_nagle_algorithm = True

    @property
    def app(self) -> Any:
        return self.server.app  # type: ignore[attr-defined]

    def parse_request(self) -> bool:
        """The parent class's parse, with :func:`read_head` for the
        head: 400, 505 (HTTP/2+) and 431 as it answers them."""
        self.command = None
        # Errors go out with a status line, whatever the request said.
        self.request_version = self.protocol_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        version = _VERSION.fullmatch(words[-1]) if len(words) == 3 else None
        if version is None:
            self.send_error(400, f"Bad request line ({self.requestline!r})")
            return False
        number = int(version[1]), int(version[2])
        if number >= (2, 0):
            self.send_error(505, f"Invalid HTTP version ({words[2][5:]})")
            return False
        self.command, self.path, self.request_version = words
        try:
            self.headers = read_head(self.rfile)  # type: ignore[assignment]
        except HeadError as exc:
            self.send_error(431, str(exc))
            return False
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            number < (1, 1) and connection != "keep-alive")
        if (number >= (1, 1)
                and self.headers.get("expect", "").lower() == "100-continue"):
            self.handle_expect_100()
            self.wfile.flush()  # the client holds the body back for it
        return True

    def log_message(self, fmt: str, *args: Any) -> None:
        if not self.app.quiet:  # route through the app's logger
            self.app.log(f"{self.address_string()} {fmt % args}")

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        app = self.app
        path = self.path.split("?", 1)[0]
        app.metrics.record_request(path)
        if path == "/healthz":
            self._reply(200, json_body(app.health_document()))
        elif path == "/metrics":
            self._reply(200, json_body(app.metrics_document()))
        elif path == "/version":
            self._reply(200, json_body(app.version_document()))
        elif path == "/registry":
            self._reply(200, json_body(app.registry_document()))
        else:
            self._reply(404, error_body(
                f"no such endpoint: GET {path}",
                endpoints=["/healthz", "/metrics", "/version", "/registry",
                           "POST /scenario"],
            ))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        app = self.app
        path = self.path.split("?", 1)[0]
        app.metrics.record_request(path)
        if path != "/scenario":
            self.close_connection = True  # the body stays unread
            self._reply(404, error_body(f"no such endpoint: POST {path}"))
            return
        started = time.monotonic()
        raw, length_error = self._read_body()
        if length_error is not None:
            self.close_connection = True  # the body stays unread
            app.metrics.record_scenario(
                outcome="invalid",
                latency_seconds=time.monotonic() - started)
            self._reply(400, error_body(length_error))
            return
        status, body, cache_status = app.handle_scenario(raw)
        app.metrics.record_scenario(
            outcome=cache_status,
            latency_seconds=time.monotonic() - started)
        headers = {}
        if status == 200:
            headers["X-Repro-Cache"] = cache_status
        elif status == 429:
            # Fail-open contract: tell the client when to come back.
            headers["Retry-After"] = "1"
        self._reply(status, body, headers)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _read_body(self) -> Tuple[bytes, Optional[str]]:
        length_header = self.headers.get("content-length")
        if length_header is None:
            return b"", "missing Content-Length (chunked bodies are not " \
                        "supported)"
        try:
            length = int(length_header)
        except ValueError:
            return b"", f"bad Content-Length: {length_header!r}"
        if not 0 <= length <= MAX_BODY_BYTES:
            return b"", f"request body of {length} bytes exceeds the " \
                        f"{MAX_BODY_BYTES}-byte limit"
        return self.rfile.read(length), None

    def _reply(self, status: int, body: bytes,
               headers: Optional[Dict[str, str]] = None) -> None:
        self.app.metrics.record_response(status)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


__all__ = ["IDLE_TIMEOUT_SECONDS", "MAX_BODY_BYTES", "ScenarioRequestHandler",
           "error_body", "json_body"]
