"""The scenario server application: simulation-as-a-service.

:class:`ScenarioServer` ties the pieces together into a long-running
service (DESIGN.md section 2.10):

* a stdlib :class:`~http.server.ThreadingHTTPServer` front end (one
  thread per kept-alive connection; ``/healthz`` stays responsive while
  scenario runs are in flight because handler threads never share locks
  with running simulations);
* a shared warm :class:`~repro.parallel.service.PoolService` executing
  scenarios in worker processes, with per-request deadlines, bounded
  admission (HTTP 429 past ``max_pending``) and crash/timeout respawn;
* a content-addressed :class:`~repro.server.cache.ResultCache` keyed on
  ``config_fingerprint() ⊕ seed ⊕ code version``, so a scenario is
  simulated at most once per code version -- repeat requests are served
  from the cache byte-identically, and concurrent identical requests
  are *coalesced* onto the single in-flight computation;
* a memo of the pure function ``request body -> (spec, cache key)``, as
  large as the cache, so a repeated body skips parsing and validation.

Declared failure modes (fail-open, in the sense that the service keeps
answering and every degradation has a defined, observable fallback):

==========================  =========================================
cache miss / corrupt entry  recompute on a worker, re-publish
worker crash                respawn; that request answers 500
request past its deadline   worker cancelled + respawned; 504
admission queue full        429 with Retry-After (shed load early)
invalid scenario            400 naming the field and the valid choices
rejected at build time      400 as well, and not cached
==========================  =========================================
"""

from __future__ import annotations

import functools
import json
import socket
import subprocess
import sys
import threading
import weakref
from http.server import ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import __version__
from repro.errors import ConfigError
from repro.parallel.service import PoolService, QueueFullError, WorkerFailure
from repro.server.cache import ResultCache
from repro.server.handlers import (
    ScenarioRequestHandler,
    error_body,
    json_body,
)
from repro.server.metrics import ServerMetrics
from repro.server.scenario import (
    CONSISTENCY_MODELS,
    SCHEMA,
    ScenarioSpec,
    run_scenario,
    validate_scenario,
)

#: Extra parent-side grace on top of the per-request deadline before the
#: handler gives up waiting on a ticket (the service-side deadline is
#: the one that actually cancels the worker).
_WAIT_GRACE_SECONDS = 10.0

#: Larger bodies are validated afresh each time, so the body memo holds
#: at most ``cache_entries`` times this many bytes (a scenario document
#: is a few hundred).
_MEMO_BODY_BYTES = 1 << 14


def git_revision(default: str = "unknown") -> str:
    """Current git commit hash, or ``default`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return default
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else default


def default_code_version() -> str:
    """The code identity cache keys are bound to: package ⊕ git rev."""
    return f"{__version__}+{git_revision()}"


def resolve_body(raw: bytes, code_version: str) -> Tuple[ScenarioSpec, str]:
    """A request body's scenario and cache key; ``ConfigError`` (a 400)
    when the body is not a valid scenario document."""
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"request body is not valid JSON: {exc}") from None
    spec = validate_scenario(document)
    return spec, spec.cache_key(code_version)


class _AppHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: The ScenarioServer, reachable from handler threads.
    app: "ScenarioServer"
    #: Sockets of the open connections, idle keep-alive ones included.
    connections: "weakref.WeakSet[socket.socket]"

    def process_request(self, request: Any, client_address: Any) -> None:
        self.connections.add(request)
        super().process_request(request, client_address)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that went away mid-reply: nothing broken.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class ScenarioServer:
    """A long-running scenario service over HTTP/JSON.

    ::

        server = ScenarioServer(port=0, jobs=2, cache_dir="/var/repro")
        server.start()                      # background thread
        ...                                 # POST {base_url}/scenario
        server.close()

    ``port=0`` binds an ephemeral port (see :attr:`base_url`).
    ``jobs`` sizes the warm worker pool; ``request_timeout`` is the
    per-scenario deadline; ``max_pending`` bounds admitted-but-
    unfinished scenarios (beyond it: 429).  ``cache_dir=None`` keeps
    the result cache in memory only.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8723, *,
                 jobs: int = 1, cache_dir: Optional[str] = None,
                 cache_entries: int = 1024,
                 request_timeout: Optional[float] = 300.0,
                 max_pending: int = 16,
                 cache: Optional[ResultCache] = None,
                 code_version: Optional[str] = None,
                 quiet: bool = True) -> None:
        if cache is not None and cache_dir is not None:
            raise ConfigError("pass cache or cache_dir, not both")
        self.quiet = quiet
        self.metrics = ServerMetrics()
        self.cache = cache if cache is not None else ResultCache(
            cache_dir, max_entries=cache_entries)
        self.service = PoolService(jobs=jobs, timeout=request_timeout,
                                   max_pending=max_pending)
        self.request_timeout = request_timeout
        self.code_version = code_version or default_code_version()
        #: Exceptions are not memoised: an invalid body is a 400 each time.
        self._resolve = functools.lru_cache(maxsize=cache_entries)(
            resolve_body)
        #: cache key -> event for the request currently computing it.
        self._inflight: Dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False
        # Bind before any worker exists: a taken port leaves nothing behind.
        self.httpd = _AppHTTPServer((host, port), ScenarioRequestHandler)
        self.httpd.app = self
        self.httpd.connections = weakref.WeakSet()
        self.service.prewarm()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def log(self, message: str) -> None:
        if not self.quiet:
            import sys

            print(f"[repro-serve] {message}", file=sys.stderr)

    def start(self) -> "ScenarioServer":
        """Serve in a background thread; returns self."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name="repro-scenario-server", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted/closed."""
        self._serving = True
        self.httpd.serve_forever()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._serving:   # shutdown() waits for a serve_forever loop
            self.httpd.shutdown()
        self.httpd.server_close()
        # An idle keep-alive handler sees end of stream and exits; a
        # busy one still sends its reply.
        for connection in list(self.httpd.connections):
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.close()

    def __enter__(self) -> "ScenarioServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # GET documents
    # ------------------------------------------------------------------
    def health_document(self) -> Dict[str, Any]:
        # Deliberately O(1): liveness must not depend on pool or cache
        # locks, so a wedged run can never wedge /healthz.
        return {
            "status": "ok",
            "schema": SCHEMA,
            "uptime_seconds": round(self.metrics.uptime_seconds, 3),
        }

    def metrics_document(self) -> Dict[str, Any]:
        return self.metrics.snapshot(cache=self.cache, service=self.service)

    def version_document(self) -> Dict[str, Any]:
        import platform

        return {
            "schema": SCHEMA,
            "package": __version__,
            "code_version": self.code_version,
            "python": platform.python_version(),
        }

    def registry_document(self) -> Dict[str, Any]:
        from repro.baselines import ALL_BASELINES
        from repro.experiments import ALL_EXPERIMENTS
        from repro.workloads import ALL_WORKLOADS

        return {
            "schema": SCHEMA,
            "workloads": sorted(ALL_WORKLOADS),
            "baselines": sorted(ALL_BASELINES),
            "experiments": list(ALL_EXPERIMENTS),
            "consistency_models": list(CONSISTENCY_MODELS),
        }

    # ------------------------------------------------------------------
    # POST /scenario
    # ------------------------------------------------------------------
    def handle_scenario(self, raw: bytes) -> Tuple[int, bytes, str]:
        """Serve one scenario request from its raw body.

        Returns ``(http_status, body_bytes, outcome)`` where outcome is
        a :meth:`ServerMetrics.record_scenario` outcome tag.
        """
        resolve = (self._resolve if len(raw) <= _MEMO_BODY_BYTES
                   else resolve_body)
        try:
            spec, key = resolve(raw, self.code_version)
        except ConfigError as exc:
            return 400, error_body(str(exc)), "invalid"

        body = self.cache.get(key)
        if body is not None:
            return 200, body, "hit"

        # Coalesce concurrent identical requests: at most one leader
        # computes a key; followers wait and re-read the cache.  A
        # follower whose leader finished without publishing (the run
        # failed, or its cache write was lost) retries for leadership.
        leader = False
        wait = (self.request_timeout + _WAIT_GRACE_SECONDS
                if self.request_timeout is not None else None)
        for _ in range(3):
            with self._inflight_lock:
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    leader = True
                    break
            event.wait(wait)
            body = self.cache.get(key)
            if body is not None:
                return 200, body, "coalesced"
        if not leader:
            # Pathological churn on one key: compute without
            # registering (possible duplicate work, never a wrong or
            # withheld answer).
            return self._compute(spec, key)
        try:
            return self._compute(spec, key)
        finally:
            with self._inflight_lock:
                event = self._inflight.pop(key, None)
            if event is not None:
                event.set()

    def _compute(self, spec: ScenarioSpec, key: str) -> Tuple[int, bytes, str]:
        """Leader path: run the scenario on the pool, publish, serve."""
        try:
            ticket = self.service.submit(
                run_scenario, (spec.as_dict(),), key=key[:12])
        except QueueFullError as exc:
            return 429, error_body(
                f"server is at capacity: {exc}", retry=True), "rejected"
        wait = (self.request_timeout + _WAIT_GRACE_SECONDS
                if self.request_timeout is not None else None)
        outcome = self.service.result(ticket, wait=wait)

        from repro.server.scenario import encode_response

        if isinstance(outcome, WorkerFailure):
            if outcome.kind == "timeout":
                return 504, error_body(
                    f"scenario exceeded the server deadline: "
                    f"{outcome.message}"), "timeout"
            if isinstance(outcome.exception, ConfigError):
                # Well-formed, but the builder rejects it (a workload's
                # minimum cluster size): the client's error, not cached.
                return 400, error_body(outcome.message), "invalid"
            return 500, error_body(
                f"scenario execution failed: {outcome.error_type}: "
                f"{outcome.message}", kind=outcome.kind), "failed"
        body = encode_response(outcome)
        # A lost cache write is fail-open: the response is still served;
        # the next identical request just recomputes.
        self.cache.put(key, body)
        return 200, body, "miss"


__all__ = ["ScenarioServer", "default_code_version"]
