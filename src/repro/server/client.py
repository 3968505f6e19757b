"""``ScenarioClient``: a stdlib HTTP client for the scenario server.

Thin by design -- a socket, the shared head reader
(:mod:`repro.server.wire`) and the canonical JSON spelling -- so the
CLI, tests, CI smoke jobs and user scripts all speak to the server the
same way without any dependency beyond the standard library::

    client = ScenarioClient("http://127.0.0.1:8723")
    reply = client.scenario(workload="synthetic", seed=3)
    assert reply.ok and reply.cache_status in ("hit", "miss")
    print(reply.json["result"]["duration"], client.metrics())

Each calling thread keeps one persistent HTTP/1.1 connection, so a
cache hit costs one send and one read rather than a TCP handshake and
teardown around them.  A request on a *reused* connection that fails
before any response byte (the server closed the connection while it sat
idle, or restarted) is retried once on a fresh connection; any other
failure drops the connection and raises.  The server speaks plain HTTP
and is meant to be reached directly: ``https://`` URLs are refused and
proxy environment variables are not consulted.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, Optional

from repro.errors import ConfigError
from repro.server.wire import MAX_LINE, HeadError, read_head

class _PerThread(threading.local):
    #: This thread's open connection to the server, if any (a buffered
    #: file over the socket, which closes with it).
    connection: Optional[BinaryIO] = None


@dataclass
class ScenarioReply:
    """One HTTP exchange with the server, status included.

    Non-200 answers are returned, not raised: 429/504 are part of the
    server's declared behavior and callers decide how to react.
    """

    status: int
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def json(self) -> Any:
        # Client-side parse: a malformed reply should raise to the
        # caller (there is no loop here to protect).
        return json.loads(self.body.decode("utf-8"))  # analyze: allow(exception-safety)

    @property
    def cache_status(self) -> Optional[str]:
        """``hit`` / ``coalesced`` / ``miss`` on successful scenarios."""
        return self.headers.get("x-repro-cache")


class ScenarioClient:
    """Client for one scenario server at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        if not base_url.startswith("http://"):
            raise ConfigError(
                f"base_url must be an http:// URL (the server speaks no "
                f"TLS), got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._address = (parts.hostname, parts.port or 80)
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = _PerThread()

    # ------------------------------------------------------------------
    # scenario submission
    # ------------------------------------------------------------------
    def scenario(self, document: Optional[Dict[str, Any]] = None,
                 **fields: Any) -> ScenarioReply:
        """POST one scenario document (as a dict, kwargs, or both)."""
        merged = dict(document or {})
        merged.update(fields)
        payload = json.dumps(merged).encode("utf-8")
        return self._request("POST", "/scenario", payload)

    def run_workload(self, workload: str, **fields: Any) -> ScenarioReply:
        """Convenience: a ``kind="workload"`` scenario."""
        return self.scenario(kind="workload", workload=workload, **fields)

    def run_experiment(self, experiment: str, **fields: Any) -> ScenarioReply:
        """Convenience: a ``kind="experiment"`` scenario."""
        return self.scenario(kind="experiment", experiment=experiment,
                             **fields)

    # ------------------------------------------------------------------
    # service endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz").json

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics").json

    def version(self) -> Dict[str, Any]:
        return self._request("GET", "/version").json

    def registry(self) -> Dict[str, Any]:
        return self._request("GET", "/registry").json

    def wait_ready(self, attempts: int = 50,
                   delay_seconds: float = 0.1) -> bool:
        """Poll ``/healthz`` until the server answers (or give up)."""
        import time

        for _ in range(attempts):
            try:
                if self.health().get("status") == "ok":
                    return True
            except (OSError, ValueError):
                pass
            time.sleep(delay_seconds)
        return False

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[bytes] = None) -> ScenarioReply:
        head = (f"{method} {self._prefix}{path} HTTP/1.1\r\n"
                f"Host: {self._netloc}\r\n")
        if payload is not None:
            head += (f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(payload)}\r\n")
        message = (head + "\r\n").encode("iso-8859-1") + (payload or b"")
        reused = self._local.connection is not None
        try:
            try:
                status_line = self._send(message)
            except (ConnectionResetError, BrokenPipeError):
                # A reused connection failing so, before any reply byte,
                # was closed by the server: safe to send once more.
                self._drop()
                if not reused:
                    raise
                status_line = self._send(message)
            reply = _read_reply(self._local.connection, status_line)
        except BaseException:
            self._drop()
            raise
        if reply.headers.get("connection", "").lower() == "close":
            self._drop()
        return reply

    def _send(self, message: bytes) -> bytes:
        """Send on this thread's connection (opening one if there is
        none) and read the reply's status line."""
        if self._local.connection is None:
            with socket.create_connection(self._address,
                                          timeout=self.timeout) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._local.connection = sock.makefile("rwb", 1 << 16)
        connection = self._local.connection
        connection.write(message)
        connection.flush()  # one send, head and body together
        status_line = connection.readline(MAX_LINE + 1)
        if not status_line:
            raise ConnectionResetError(
                "the server closed the connection without replying")
        return status_line

    def _drop(self) -> None:
        connection, self._local.connection = self._local.connection, None
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass  # the unsent rest of a request that failed anyway


def _read_reply(connection: BinaryIO, status_line: bytes) -> ScenarioReply:
    """The rest of a reply after its status line: the head, then a body
    of the required ``Content-Length``."""
    headers = read_head(connection)
    try:
        status = int(status_line.split(None, 2)[1])
        length = int(headers["content-length"])
    except (IndexError, KeyError, ValueError):
        raise HeadError(f"unreadable reply: {status_line!r}") from None
    body = connection.read(length)
    if len(body) != length:
        raise ConnectionResetError(
            f"reply body cut short: {len(body)} of {length} bytes")
    return ScenarioReply(status=status, body=body, headers=headers)


__all__ = ["ScenarioClient", "ScenarioReply"]
