"""Event objects and the deterministic event queue.

Events scheduled for the same simulated time are dispatched in scheduling
order (FIFO), which -- together with seeded RNG streams -- makes whole-system
runs bit-for-bit reproducible.

Performance note: the heap stores ``(time, seq, event)`` tuples rather
than :class:`Event` objects directly.  Tuple comparison happens entirely
in C and -- because ``seq`` is unique -- never falls through to comparing
events, which keeps the per-push/pop cost flat while preserving exactly
the (time, insertion) order the determinism contract requires.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Events are cancellable: :meth:`cancel` marks the event dead and the
    queue skips it at dispatch time (lazy deletion, the standard heapq
    idiom).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark the event as cancelled; it will never fire."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {self.label!r}, {state})"


class EventQueue:
    """Min-heap of events ordered by (time, insertion sequence)."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        label: str = "",
    ) -> Event:
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        seq = next(self._counter)
        event = Event(time, seq, callback, args, label)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the next live event with ``time <= until``.

        Returns None -- leaving the event queued -- when the queue is
        empty or the next live event lies beyond ``until``.  This is the
        kernel run loop's fast path: one heap traversal per dispatched
        event instead of a peek followed by a pop.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and head[0] > until:
                return None
            heappop(heap)
            return event
        return None

    def pop_next_at(self, time: float) -> Optional[Event]:
        """Pop the next live event scheduled exactly at ``time``.

        Returns None -- leaving the event queued -- when the queue is
        empty or the next live event lies at a different timestamp.
        This is the kernel's batched-dispatch fast path: within a run of
        same-timestamp events it replaces :meth:`pop_next`'s ``until``
        bound check with one float equality and lets the caller skip the
        clock advance entirely.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                heappop(heap)
                continue
            if head[0] != time:
                return None
            heappop(heap)
            return event
        return None
