"""``ScenarioClient``: a stdlib HTTP client for the scenario server.

Thin by design -- ``http.client`` plus the canonical JSON spelling -- so
the CLI, tests, CI smoke jobs and user scripts all speak to the server
the same way without any dependency beyond the standard library::

    client = ScenarioClient("http://127.0.0.1:8723")
    reply = client.scenario(workload="synthetic", seed=3)
    assert reply.ok and reply.cache_status in ("hit", "miss")
    print(reply.json["result"]["duration"], client.metrics())

Each calling thread keeps one persistent HTTP/1.1 connection, so a
cache hit costs one request/response exchange rather than a TCP
handshake and teardown around it.  A request on a *reused* connection
that fails before any response byte (the server closed the connection
while it sat idle, or restarted) is retried once on a fresh connection;
any other failure drops the connection and raises.  Proxy environment
variables are not consulted: the server is meant to be reached directly.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import ConfigError

#: How a reused connection fails when the server closed it before
#: reading the request: safe to send once more on a fresh connection.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError,
          BrokenPipeError)


class _PerThread(threading.local):
    #: This thread's open connection to the server, if any.
    connection: Optional[http.client.HTTPConnection] = None


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
        if not base_url.startswith(("http://", "https://")):
            raise ConfigError(
                f"base_url must be an http(s) URL, got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
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
        headers = ({"Content-Type": "application/json"}
                   if payload is not None else {})
        reused = self._local.connection is not None
        try:
            response = self._send(method, path, payload, headers)
        except _STALE:
            if not reused:
                raise
            # Closed while idle: once more, on a fresh connection.
            response = self._send(method, path, payload, headers)
        try:
            body = response.read()
        except BaseException:
            self._drop()
            raise
        if response.will_close:
            self._drop()
        return ScenarioReply(
            status=response.status, body=body,
            headers={k.lower(): v for k, v in response.getheaders()})

    def _send(self, method: str, path: str, payload: Optional[bytes],
              headers: Dict[str, str]) -> http.client.HTTPResponse:
        """Send on this thread's connection (opening one if there is
        none) and read the response head; a failure drops it."""
        connection = self._local.connection
        if connection is None:
            connection = self._local.connection = self._connection_class(
                self._netloc, timeout=self.timeout)
        try:
            connection.request(method, self._prefix + path, body=payload,
                               headers=headers)
            return connection.getresponse()
        except BaseException:
            self._drop()
            raise

    def _drop(self) -> None:
        connection, self._local.connection = self._local.connection, None
        if connection is not None:
            connection.close()


__all__ = ["ScenarioClient", "ScenarioReply"]
