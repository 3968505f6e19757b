"""Measurement primitives for the benchmark harness.

Wall-clock readings here are *reporting only*: they are taken around a
completed simulation (or micro-loop) and never feed back into simulated
behavior, so determinism is unaffected.  The determinism analysis lists
this module host-side for that reason
(:data:`repro.analysis.purity.PATH_TABLE`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class BenchRecord:
    """One benchmark's outcome -- the row format of ``BENCH_perf.json``.

    ``events`` counts simulator kernel dispatches (micro-benchmarks count
    their primitive operation instead); ``messages`` counts network sends.
    Rates are derived from ``wall_seconds`` and are the numbers the
    regression gate compares, normalized by the host calibration factor.
    """

    name: str
    kind: str  # "micro" | "experiment" | "workload"
    wall_seconds: float
    events: int = 0
    messages: int = 0
    peak_log_bytes: int = 0
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def messages_per_sec(self) -> float:
        return self.messages / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "messages": self.messages,
            "messages_per_sec": self.messages_per_sec,
            "peak_log_bytes": self.peak_log_bytes,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "BenchRecord":
        return cls(
            name=row["name"],
            kind=row["kind"],
            wall_seconds=row["wall_seconds"],
            events=row.get("events", 0),
            messages=row.get("messages", 0),
            peak_log_bytes=row.get("peak_log_bytes", 0),
            seed=row.get("seed", 0),
            params=dict(row.get("params", {})),
        )


class Stopwatch:
    """Context manager reading the host's monotonic clock.

    ``repeats`` runs of the measured body should each be wrapped in their
    own ``with`` block; :attr:`best` keeps the minimum (the standard
    benchmarking estimator: the least-interfered-with run).
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self.best: Optional[float] = None
        self._started: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed = time.perf_counter() - self._started
        if self.best is None or self.elapsed < self.best:
            self.best = self.elapsed


def calibrate(loops: int = 2_000_000) -> float:
    """Wall-clock seconds for a fixed pure-Python spin loop.

    Recorded in every report so two reports taken on different hosts can
    be compared on *normalized* time (``wall / calibration``) instead of
    raw wall-clock -- this is what keeps the CI regression gate meaningful
    when the committed baseline was measured on different hardware.
    """
    watch = Stopwatch()
    for _ in range(3):
        with watch:
            acc = 0
            for i in range(loops):
                acc += i & 7
    assert watch.best is not None
    return watch.best
