"""What the three workload modules share: identity, tally, time budget."""

from __future__ import annotations

import resource
import time
from typing import Any, Dict, List, Optional

from benchmarks.e2e.hostspeed import HostPace
from benchmarks.e2e.seeds import program_seed


class Budget:
    """Keep working until ``seconds`` have passed: at least ``floor``
    items, at most ``cap``."""

    def __init__(self, seconds: float, floor: int,
                 cap: Optional[int] = None) -> None:
        self.seconds = seconds
        self.floor = floor
        self.cap = cap
        self.started = time.perf_counter()

    def more(self, done: int) -> bool:
        if self.cap is not None and done >= self.cap:
            return False
        return (done < self.floor
                or time.perf_counter() - self.started < self.seconds)


class Workload:
    """One workload in one child process (see ``child.py``).

    Subclasses implement ``measure(seconds)`` and
    ``measure_traced(seconds)``; both return :meth:`outcome`.
    """

    #: Whose ``ru_maxrss`` is ``peak_rss_mb`` (read after ``close``).
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: str) -> None:
        self.name = name
        #: The seed the program is given (see ``seeds.py``).
        self.seed = program_seed(name, seed)
        self.smoke = smoke
        self.work_dir = work_dir
        self.pace = HostPace()
        #: Process groups started here; the parent kills them if this
        #: process is killed before it can.
        self.process_groups: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._rss_mark: Optional[float] = None

    def setup(self) -> None:
        """Everything before the first measured operation."""

    def close(self) -> None:
        """Release what ``setup`` and the measurement opened."""

    def note(self, ok: bool, why: str) -> None:
        """Count one checked operation; ``why`` names it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(why)

    def outcome(self, metrics: Dict[str, float],
                detail: Dict[str, Any]) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures[:20], "metrics": metrics,
                "detail": dict(detail, host_slowness=self.pace.summary())}

    def mark_rss(self) -> None:
        """Fix ``peak_rss_mb`` at the high-water mark reached so far.

        Called once a fixed amount of work is done: memory keeps creeping
        up with every further repeat, and how many repeats fit in the
        time budget depends on the host, not on the program."""
        if self._rss_mark is None:
            self._rss_mark = self.peak_rss_mb()

    def peak_rss_mb(self) -> float:
        if self._rss_mark is not None:
            return self._rss_mark
        return resource.getrusage(self.rusage_who).ru_maxrss / 1024.0
