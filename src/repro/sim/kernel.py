"""The discrete-event kernel.

One :class:`Kernel` instance drives a whole simulated cluster: it owns the
simulated time (:attr:`Kernel.now`), the event queue, the RNG registry and
the trace log.  Components schedule callbacks; the kernel dispatches them
in deterministic (time, insertion) order until the queue drains, a time
horizon is reached, or a stop condition fires.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceLog


class Kernel:
    """Deterministic discrete-event simulation kernel.

    ``now`` is the simulated time: a float in arbitrary units (the
    experiments read one unit as one millisecond, nothing here depends on
    that).  Only :meth:`run` moves it, and only forwards.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[TraceLog] = None,
        max_events: int = 50_000_000,
    ) -> None:
        self.now = 0.0
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self._max_events = max_events
        self._dispatched = 0
        self._stopped = False
        self._stop_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def dispatched(self) -> int:
        """Total number of events dispatched so far."""
        return self._dispatched

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {label or callback}")
        return self.queue.push(self.now + delay, callback, args, label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule {label or callback} in the past "
                f"({time} < {self.now})"
            )
        return self.queue.push(time, callback, args, label)

    def call_soon(self, callback: Callable[..., None], *args: Any, label: str = "") -> Event:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.queue.push(self.now, callback, args, label)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def stop(self, reason: str = "stopped") -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or stop() is called.

        Returns the simulated time at which the run loop exited.  When
        ``until`` is given and events remain beyond it, ``now`` is
        advanced exactly to ``until``.

        The loop body is the simulator's hottest path; locals are bound
        once and events are dispatched in same-timestamp *batches*: the
        outer loop pops the first event of a timestamp via
        :meth:`EventQueue.pop_next` (which enforces the ``until`` bound)
        and advances ``now`` once, then the inner loop drains the rest
        of the run via :meth:`EventQueue.pop_next_at`, skipping the
        bound check and the advance for every follower.  Stop
        flags and the event budget are still consulted per event --
        callbacks (e.g. completion checks) may stop the kernel mid-batch
        and the dispatched count feeds run results, so both must be
        exact.
        """
        self._stopped = False
        self._stop_reason = None
        queue = self.queue
        max_events = self._max_events
        pop_next_at = queue.pop_next_at
        while not self._stopped:
            event = queue.pop_next(until)
            if event is None:
                break
            batch_time = event.time
            if batch_time < self.now:
                # Only a corrupted queue hands back an event in the past.
                raise SimulationError(
                    f"clock moving backwards: {self.now} -> {batch_time}"
                )
            self.now = batch_time
            while True:
                dispatched = self._dispatched = self._dispatched + 1
                if dispatched > max_events:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events) -- "
                        "likely a livelock in the simulated protocol"
                    )
                event.callback(*event.args)
                if self._stopped:
                    break
                event = pop_next_at(batch_time)
                if event is None:
                    break
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now
