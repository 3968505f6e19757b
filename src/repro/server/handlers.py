"""HTTP request handling for the scenario server.

One :class:`ScenarioRequestHandler` instance handles one connection on
a :class:`~http.server.ThreadingHTTPServer` thread: HTTP/1.1 keep-alive,
so a client may send many requests on it.  The handler is a
thin codec: it parses the wire request, routes to the
:class:`~repro.server.app.ScenarioServer` application object (reached
via ``self.server.app``), and writes the application's
``(status, body, headers)`` verdict back.  All policy -- validation,
caching, admission control, dispatch -- lives in the application, where
it is testable without sockets.

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

import json
import time
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional, Tuple

from repro import __version__
from repro.fingerprint import canonical_json
from repro.server.scenario import SCHEMA

#: Upper bound on accepted request bodies: scenario documents are small;
#: anything bigger is a client error (or abuse), not a scenario.
MAX_BODY_BYTES = 1 << 20

#: Seconds a kept-alive connection may sit idle before the server closes
#: it, so an abandoned client cannot hold a handler thread forever.
IDLE_TIMEOUT_SECONDS = 30.0


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
    #: A reply goes out as two sends (head, body); with Nagle on, the
    #: body waits for the client's delayed ACK of the head (~40 ms).
    disable_nagle_algorithm = True

    @property
    def app(self) -> Any:
        return self.server.app  # type: ignore[attr-defined]

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
        document, parse_error = self._read_json()
        if parse_error is not None:
            self.close_connection = True  # the body may be unread
            app.metrics.record_scenario(
                outcome="invalid",
                latency_seconds=time.monotonic() - started)
            self._reply(400, error_body(parse_error))
            return
        status, body, cache_status = app.handle_scenario(document)
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
    def _read_json(self) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            return None, "missing Content-Length (chunked bodies are not " \
                         "supported)"
        try:
            length = int(length_header)
        except ValueError:
            return None, f"bad Content-Length: {length_header!r}"
        if not 0 <= length <= MAX_BODY_BYTES:
            return None, f"request body of {length} bytes exceeds the " \
                         f"{MAX_BODY_BYTES}-byte limit"
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, f"request body is not valid JSON: {exc}"
        if not isinstance(document, dict):
            return None, "scenario must be a JSON object"
        return document, None

    def _reply(self, status: int, body: bytes,
               headers: Optional[Dict[str, str]] = None) -> None:
        self.app.metrics.record_response(status)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away; nothing to salvage, nothing broken.
            pass


__all__ = ["IDLE_TIMEOUT_SECONDS", "MAX_BODY_BYTES", "ScenarioRequestHandler",
           "error_body", "json_body"]
