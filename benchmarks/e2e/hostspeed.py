"""Host-speed correction for timings taken on a shared, noisy host.

The sandbox this benchmark runs in changes speed by up to a third for
seconds at a time (a neighbour on the same core): the same simulation
reads 27 000 or 34 000 events/s depending on when it ran, and process
CPU time moves with wall time, so it is the processor, not scheduling.
Medians over a ten-second run do not help -- the slow phases last about
as long as the run.

So every measured region (50-100 ms of work) is bracketed by a fixed
probe (about 8 ms).  How much slower than ``REFERENCE_S`` the probe ran
is the host's slowness during that region, and the region's wall time is
divided by it.  Throughput and latency metrics are therefore reported
*at reference host speed*; the uncorrected medians are kept in each
run's detail line.  On a quiet host the factor is constant and the
correction changes nothing but the scale.

The probe is the harness's own code and touches nothing of the program,
so a change to the program cannot move it.  It deliberately has the
interpreter's instruction mix -- attribute and dict access, method
calls, small allocations, a heap -- because the neighbour does not slow
all code alike: sizing for this benchmark, medians of ten ``ff_wide``
repeats ranged 33 % uncorrected, 17 % corrected by a tight arithmetic
loop and 7 % corrected by this probe.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List

#: The probe's duration on the reference host.  Any constant works --
#: comparisons are between runs on one host -- this one is near the
#: sizing host's undisturbed reading.
REFERENCE_S = 0.0075
_ITERATIONS = 6000


class _Cell:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0

    def bump(self, amount: int) -> int:
        self.total += amount
        return self.total


class _Bag:
    def __init__(self, key: int) -> None:
        self.key = key
        self.items: Dict[int, tuple] = {}

    def put(self, key: int, value: tuple) -> int:
        self.items[key] = value
        return len(self.items)


def probe() -> float:
    """The host's slowness right now (1.0 = reference speed)."""
    started = time.perf_counter()
    bags = [_Bag(i) for i in range(64)]
    cells = [_Cell(i) for i in range(256)]
    heap: List[tuple] = []
    table: Dict[tuple, list] = {}
    for i in range(_ITERATIONS):
        bag = bags[i & 63]
        cell = cells[(i * 7) & 255]
        bag.put(i & 31, (i, cell.key))
        cell.bump(i)
        table[(i & 127, "k")] = [i, cell]
        heapq.heappush(heap, (float((i * 37) % 101), i))
        if i & 1:
            heapq.heappop(heap)
        table.get((i & 127, "obj%d" % (i & 15)))
    return (time.perf_counter() - started) / REFERENCE_S


class HostPace:
    """Probe readings in time order, and the slowness of the regions
    between them.

    A region is the work between two consecutive probes and is named by
    the index of the probe before it.  Its slowness is the median of the
    ``WINDOW`` readings around it, taken once the later ones exist: one
    probe in ten reads 50 % high and one in a thousand 10x (it was the
    probe that got pre-empted), while the slow phases being corrected
    last for seconds.
    """

    WINDOW = 6

    def __init__(self) -> None:
        self.readings: List[float] = []

    def probe(self) -> int:
        """Probe now; returns the index of the region that starts here."""
        self.readings.append(probe())
        return len(self.readings) - 1

    def slowness(self, region: int) -> float:
        half = self.WINDOW // 2
        window = sorted(self.readings[max(0, region - half + 1):
                                      region + half + 1])
        middle = len(window) // 2
        if len(window) % 2:
            return window[middle]
        return (window[middle - 1] + window[middle]) / 2.0

    def corrected(self, raw: float, region: int) -> float:
        """``raw`` seconds of ``region`` at reference host speed."""
        return raw / self.slowness(region)

    def corrected_run(self, raws: List[float], first: int) -> List[float]:
        """The same for consecutive regions starting at ``first``."""
        return [self.corrected(raw, first + index)
                for index, raw in enumerate(raws)]

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self.readings) or [0.0]
        return {"min": ordered[0], "median": ordered[len(ordered) // 2],
                "max": ordered[-1], "probes": len(ordered)}
