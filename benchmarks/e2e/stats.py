"""Order statistics shared by the harness and ``compare``."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p90/p99 that leaves at least ten samples beyond it."""
    for q in (0.99, 0.90):
        if count * (1.0 - q) >= 10:
            return q
    return None


def quartiles(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(Q1, Q3) as ``statistics.quantiles(n=4)`` gives them; None below 2."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median."""
    quarts = quartiles(values)
    mid = median(values) if values else 0.0
    if quarts is None or not mid:
        return None
    return (quarts[1] - quarts[0]) / abs(mid)


def thirds_ratio(values: List[float]) -> float:
    """Median of the last third over median of the first third."""
    third = max(1, len(values) // 3)
    first = median(values[:third])
    return median(values[-third:]) / first if first else 0.0
