"""Server metrics: counters, gauges and latency quantiles for /metrics.

Everything here is *host-side observability* -- wall-clock latencies,
request counts, queue depths.  None of it ever feeds back into
simulated behavior (responses are produced by deterministic workers and
cached by content address), which is why this module may read the host
clock; the determinism analysis lists it host-side on those grounds
(:data:`repro.analysis.purity.PATH_TABLE`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict


#: How many recent request latencies back the p50/p99 estimates.  A
#: bounded window keeps /metrics O(window) and the server O(1) memory;
#: the quantiles describe recent traffic, which is what an operator
#: watching a dashboard wants anyway.
LATENCY_WINDOW = 2048


class ServerMetrics:
    """Thread-safe counters for the scenario server.

    The server increments these from handler threads; ``snapshot()``
    renders one consistent JSON-ready view for ``/metrics``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self.requests_total = 0
        self.requests_by_path: Dict[str, int] = {}
        self.responses_by_status: Dict[int, int] = {}
        self.scenario_requests = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced_hits = 0
        self.runs_executed = 0
        self.rejected_queue_full = 0
        self.validation_errors = 0
        self.run_failures = 0
        self.run_timeouts = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_request(self, path: str) -> None:
        with self._lock:
            self.requests_total += 1
            self.requests_by_path[path] = \
                self.requests_by_path.get(path, 0) + 1

    def record_response(self, status: int) -> None:
        with self._lock:
            self.responses_by_status[status] = \
                self.responses_by_status.get(status, 0) + 1

    def record_scenario(self, *, outcome: str,
                        latency_seconds: float) -> None:
        """Account one completed POST /scenario.

        ``outcome`` is one of ``"hit"``, ``"coalesced"``, ``"miss"``
        (computed fresh), ``"rejected"``, ``"invalid"``, ``"timeout"``,
        ``"failed"``.
        """
        with self._lock:
            self.scenario_requests += 1
            if outcome == "hit":
                self.cache_hits += 1
            elif outcome == "coalesced":
                self.cache_hits += 1
                self.coalesced_hits += 1
            elif outcome == "miss":
                self.cache_misses += 1
                self.runs_executed += 1
            elif outcome == "rejected":
                self.rejected_queue_full += 1
            elif outcome == "invalid":
                self.validation_errors += 1
            elif outcome == "timeout":
                self.cache_misses += 1
                self.run_timeouts += 1
            elif outcome == "failed":
                self.cache_misses += 1
                self.run_failures += 1
            self._latencies.append(latency_seconds)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_at

    @staticmethod
    def _quantile(ordered: list, q: float) -> float:
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self, cache: Any = None, service: Any = None,
                 cache_entries: int = 0) -> Dict[str, Any]:
        """One consistent /metrics document.

        ``cache`` is a :class:`~repro.server.cache.ResultCache` and
        ``service`` a :class:`~repro.parallel.service.PoolService`;
        both optional so the metrics object stays testable alone.
        """
        with self._lock:
            ordered = sorted(self._latencies)
            lookups = self.cache_hits + self.cache_misses
            document: Dict[str, Any] = {
                "uptime_seconds": round(self.uptime_seconds, 3),
                "requests": {
                    "total": self.requests_total,
                    "by_path": dict(sorted(self.requests_by_path.items())),
                    "by_status": {
                        str(code): count for code, count in
                        sorted(self.responses_by_status.items())
                    },
                },
                "scenario": {
                    "requests": self.scenario_requests,
                    "cache_hits": self.cache_hits,
                    "cache_misses": self.cache_misses,
                    "coalesced_hits": self.coalesced_hits,
                    "cache_hit_rate": round(
                        self.cache_hits / lookups, 4) if lookups else 0.0,
                    "runs_executed": self.runs_executed,
                    "rejected_queue_full": self.rejected_queue_full,
                    "validation_errors": self.validation_errors,
                    "run_failures": self.run_failures,
                    "run_timeouts": self.run_timeouts,
                },
                "latency_ms": {
                    "window": len(ordered),
                    "p50": round(self._quantile(ordered, 0.50) * 1000.0, 3),
                    "p99": round(self._quantile(ordered, 0.99) * 1000.0, 3),
                    "max": round(ordered[-1] * 1000.0, 3) if ordered else 0.0,
                },
            }
        if cache is not None:
            cache_doc = cache.counters.as_dict()
            cache_doc["entries"] = cache_entries or len(cache)
            cache_doc["hit_rate"] = round(cache.counters.hit_rate, 4)
            document["cache"] = cache_doc
        if service is not None:
            document["pool"] = service.stats()
        return document


__all__ = ["LATENCY_WINDOW", "ServerMetrics"]
