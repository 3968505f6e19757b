"""``RunPool``: the batch face of the warm worker pool.

``map`` is "serial fallback, else submit every call to the
:class:`~repro.parallel.engine.WorkerEngine` and wait in submission
order" (DESIGN.md section 2.9).  What the pool itself guarantees:

* **Determinism** -- results are merged strictly by *submission index*,
  never by completion order, and every task carries its full
  configuration (seed included), so a parallel run is indistinguishable
  from the serial loop it replaces.
* **Structured failure** -- a task that raises comes back as a typed
  :class:`WorkerFailure` row in its slot (the original exception rides
  along when it survives pickling), so a caller can keep the failed
  slot as a row or re-raise (:func:`raise_failures`).
* **Graceful degradation** -- with ``jobs<=1``, a single task, or a task
  that cannot be pickled (lambdas, closures), the pool runs the batch
  inline in the parent, preserving exact serial semantics.  The
  ``ran_parallel`` attribute reports which path a ``map`` took.

Warm workers reused across ``map`` calls, straggler cancellation (the
pool's ``timeout`` is stamped on every ticket) and crash handling are
the engine's.
"""

from __future__ import annotations

import pickle
import queue as queue_module
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.parallel.engine import (  # the last two are re-exported
    Ticket,
    WorkerEngine,
    WorkerError,
    WorkerFailure,
)


@dataclass
class Call:
    """One unit of work: ``fn(*args, **kwargs)`` in some worker.

    ``fn`` must be addressable from a fresh interpreter (module-level
    functions and ``functools.partial`` over them work; lambdas and
    closures force the serial fallback).  ``key`` is a short label used
    in progress callbacks and failure rows.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Optional[Dict[str, Any]] = None
    key: str = ""


class RunPool:
    """A pool of warm spawn-context workers executing independent tasks.

    Usage::

        with RunPool(jobs=4, timeout=120.0) as pool:
            outcomes = pool.map([Call(run_point, (params,)) for ...])

    ``outcomes`` is a list aligned with the submitted calls: each slot is
    the task's return value or a :class:`WorkerFailure`.  ``jobs=0``
    means one worker per CPU; ``progress(done, total, key)`` is invoked
    in the parent as results arrive (in completion order -- only the
    *merge* is submission-ordered).

    A pool is not reentrant: call :meth:`map` from one thread at a time.
    """

    def __init__(self, jobs: int = 0, timeout: Optional[float] = None,
                 progress: Optional[Callable[[int, int, str], None]] = None,
                 ) -> None:
        self._engine = WorkerEngine(jobs)
        self.jobs = self._engine.jobs
        self.timeout = timeout
        self.progress = progress
        #: progress callbacks that raised (swallowed: a broken progress
        #: printer must not abort the wait mid-fan-out).
        self.progress_errors = 0
        #: True when the last ``map`` actually fanned out.
        self.ran_parallel = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "RunPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Retire the workers.  Idempotent; called by ``__exit__``."""
        self._closed = True
        self._engine.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def map(self, calls: Sequence[Union[Call, Tuple[Any, ...]]]) -> List[Any]:
        """Run every call; return outcomes merged by submission index."""
        if self._closed:
            raise RuntimeError("RunPool is closed")
        normalized = [self._normalize(call) for call in calls]
        self.ran_parallel = False
        if self.jobs <= 1 or len(normalized) <= 1:
            return self._map_serial(normalized)
        payloads = self._pickle_all(normalized)
        if payloads is None:
            return self._map_serial(normalized)
        self.ran_parallel = True
        return self._map_parallel(normalized, payloads)

    @staticmethod
    def _normalize(call: Union[Call, Tuple[Any, ...]]) -> Call:
        if isinstance(call, Call):
            return call
        fn, *rest = call
        args = rest[0] if rest else ()
        kwargs = rest[1] if len(rest) > 1 else None
        return Call(fn, tuple(args), kwargs)

    @staticmethod
    def _pickle_all(calls: Sequence[Call]) -> Optional[List[bytes]]:
        """Pickle every task payload, or None if any cannot travel."""
        payloads: List[bytes] = []
        for call in calls:
            try:
                payloads.append(pickle.dumps(
                    (call.fn, call.args, call.kwargs or {}),
                    protocol=pickle.HIGHEST_PROTOCOL,
                ))
            except Exception:
                return None
        return payloads

    # ------------------------------------------------------------------
    # serial fallback
    # ------------------------------------------------------------------
    def _map_serial(self, calls: Sequence[Call]) -> List[Any]:
        outcomes: List[Any] = []
        for index, call in enumerate(calls):
            try:
                outcomes.append(call.fn(*call.args, **(call.kwargs or {})))
            except Exception as exc:
                import traceback as traceback_module

                outcomes.append(WorkerFailure(
                    index=index, key=call.key, kind="error",
                    error_type=type(exc).__name__, message=str(exc),
                    traceback=traceback_module.format_exc(), exception=exc,
                ))
            self._notify(index + 1, len(calls), call.key)
        return outcomes

    def _notify(self, done: int, total: int, key: str) -> None:
        """Invoke the progress callback, absorbing its failures.

        The callback is user code running inside the wait loop; if it
        raises, the batch would be abandoned with results half-collected.
        """
        if self.progress is None:
            return
        try:
            self.progress(done, total, key)
        except Exception:
            self.progress_errors += 1

    # ------------------------------------------------------------------
    # parallel path
    # ------------------------------------------------------------------
    def _map_parallel(self, calls: Sequence[Call],
                      payloads: List[bytes]) -> List[Any]:
        total = len(calls)
        completed: queue_module.Queue[Ticket] = queue_module.Queue()
        tickets = [
            self._engine.admit(payload, call.key, self.timeout,
                               completed=completed)
            for call, payload in zip(calls, payloads)
        ]
        for done in range(1, total + 1):
            self._notify(done, total, completed.get().key)
        outcomes: List[Any] = []
        for index, ticket in enumerate(tickets):
            outcome = ticket.outcome
            if isinstance(outcome, WorkerFailure):
                outcome.index = index   # the slot, not the engine's id
            outcomes.append(outcome)
        return outcomes


def raise_failures(outcomes: Sequence[Any]) -> None:
    """Re-raise the first :class:`WorkerFailure` in ``outcomes``, if any."""
    for outcome in outcomes:
        if isinstance(outcome, WorkerFailure):
            outcome.raise_()
