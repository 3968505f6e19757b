"""``PoolService``: the request/response face of the warm worker pool.

:class:`~repro.parallel.pool.RunPool` has a *batch* shape: one thread
submits a whole sweep and blocks until every slot is merged.  A server
has the opposite shape -- many handler threads each submitting one task
and waiting for exactly that task's result, while the pool of warm
workers stays up across requests.  ``PoolService`` is the
:class:`~repro.parallel.engine.WorkerEngine` with that shape on top:

* **Pre-warmed workers** -- ``jobs`` workers are asked for at
  construction, so the first request does not pay for a spawn.
* **Bounded admission** -- at most ``max_pending`` tasks may be
  submitted-but-unfinished; :meth:`submit` raises
  :class:`QueueFullError` beyond that, which the scenario server maps
  to HTTP 429.  Admission control lives *here*, ahead of the workers,
  so an overloaded service fails fast instead of queueing unboundedly.
* **A default deadline** -- ``timeout`` is stamped on every ticket that
  does not bring its own.

Respawn after a crash or a deadline kill (``worker_restarts``) and the
typed :class:`WorkerFailure` rows are the engine's, exactly as for the
batch pool.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.parallel.engine import (
    QueueFullError,
    ServiceClosedError,
    Ticket,
    WorkerEngine,
    WorkerFailure,
)


class PoolService(WorkerEngine):
    """A long-lived, thread-safe dispatcher over warm worker processes.

    Usage::

        service = PoolService(jobs=2, timeout=120.0, max_pending=16)
        ticket = service.submit(run_scenario, (spec,), key="e2e")
        outcome = service.result(ticket)   # value or WorkerFailure
        ...
        service.close()

    ``jobs`` follows the uniform contract (``0`` = one worker per CPU).
    ``timeout`` is the default per-task deadline (seconds; ``None``
    disables); :meth:`submit` can override it per task.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None,
                 max_pending: int = 16) -> None:
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        super().__init__(jobs)
        self.timeout = timeout
        self.max_pending = max_pending
        self.prewarm(self.jobs)

    def __enter__(self) -> "PoolService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def submit(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
               kwargs: Optional[Dict[str, Any]] = None, *, key: str = "",
               timeout: Optional[float] = -1.0) -> Ticket:
        """Admit one task; returns a :class:`Ticket` to wait on.

        Raises :class:`QueueFullError` when ``max_pending`` tasks are
        already unfinished, :class:`ServiceClosedError` after
        :meth:`close`, and ``TypeError``/``pickle.PicklingError`` when
        the payload cannot travel to a worker (the service has no
        inline fallback -- server tasks must be module-level
        callables).  ``timeout=-1`` means "use the service default".
        """
        payload = pickle.dumps((fn, args, kwargs or {}),
                               protocol=pickle.HIGHEST_PROTOCOL)
        return self.admit(payload, key or None,
                          self.timeout if timeout == -1.0 else timeout,
                          limit=self.max_pending)

    def result(self, ticket: Ticket, wait: Optional[float] = None) -> Any:
        """Block until ``ticket`` finishes; return its value or failure.

        ``wait`` bounds the parent-side wait (seconds); past it a
        ``kind="timeout"`` :class:`WorkerFailure` is returned *without*
        cancelling the task (the service-side deadline does that).
        """
        if not ticket.done.wait(wait):
            return WorkerFailure(
                index=ticket.index, key=ticket.key, kind="timeout",
                error_type="TimeoutError",
                message=f"gave up waiting after {wait:g}s "
                        "(task may still be running)",
            )
        return ticket.outcome

    def run(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
            kwargs: Optional[Dict[str, Any]] = None, *, key: str = "",
            timeout: Optional[float] = -1.0,
            wait: Optional[float] = None) -> Any:
        """:meth:`submit` + :meth:`result` in one call."""
        return self.result(self.submit(fn, args, kwargs, key=key,
                                       timeout=timeout), wait=wait)


__all__ = ["PoolService", "QueueFullError", "ServiceClosedError", "Ticket"]
