"""``PoolService``: the one warm worker pool.

It is the only code that spawns, watches, kills or joins a worker
process, and it has two ways in: :meth:`PoolService.submit` /
:meth:`PoolService.result` for one task at a time from many threads (the
scenario server), and :meth:`PoolService.map` for a whole batch merged
in submission order (the experiment runner, the fuzzer).  It owns:

* **tickets** -- one :class:`Ticket` per admitted task, resolved exactly
  once with the task's value or a typed :class:`WorkerFailure` row;
* **the collector thread** -- the only reader of the result queue
  (``hello``/``start``/``done``, see :mod:`repro.parallel.worker`);
* **the sweep** -- dead-worker detection, deadline kills and respawn,
  run between messages.

Its rules (DESIGN.md section 2.9):

(a) *Worker count.*  The pool keeps ``min(jobs, unfinished tasks)``
    workers alive, at the highest level that expression has reached: a
    warm worker is never retired before :meth:`PoolService.close`, and
    a dead one is replaced.  :meth:`PoolService.prewarm` raises the
    level to ``jobs`` ahead of the first task.
(b) *A result beats a crash.*  When a worker is found dead, everything
    it managed to send is handled before its task is declared crashed,
    so a ``done`` sent before the death wins.  A deliberate deadline
    kill stays a ``timeout`` failure: a late ``done`` finds no ticket.
(c) *Bad messages are skipped.*  A malformed or undecodable result-queue
    message is counted in ``collector_errors`` and dropped -- every
    pending ticket waits on the collector, so nothing a message can
    throw may kill it.
(d) *Bounded admission.*  With ``max_pending`` set, a submission that
    would leave more than that many tasks unfinished raises
    :class:`QueueFullError` and queues nothing (the server's 429).

Host wall-clock reads here drive orchestration only (deadlines, liveness
sweeps, join timeouts); simulated behavior inside the workers remains a
pure function of each task's payload, which is why the determinism
analysis lists this file as host-side.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.parallel.seeds import resolve_jobs
from repro.parallel.worker import worker_main

#: How long the collector blocks on the result queue between sweeps.
_POLL_SECONDS = 0.05

#: Seconds to wait for a worker to exit voluntarily at close time.
_JOIN_SECONDS = 2.0


class WorkerError(RuntimeError):
    """Raised in the parent for a task failure whose original exception
    could not be transported across the process boundary."""


class QueueFullError(RuntimeError):
    """Raised at admission when ``max_pending`` unfinished tasks are
    already admitted -- the caller should shed load."""


class ServiceClosedError(RuntimeError):
    """Raised when submitting to a closed pool."""


@dataclass
class WorkerFailure:
    """A task that did not produce a result -- the error row format.

    ``kind`` is ``"error"`` (the task raised), ``"timeout"`` (the task
    exceeded its deadline and its worker was killed) or ``"crash"`` (the
    worker process died under the task).  When the original exception
    could be pickled it is carried in ``exception`` and :meth:`raise_`
    re-raises it; otherwise :meth:`raise_` raises a :class:`WorkerError`
    with the marshaled description.
    """

    key: str
    kind: str
    error_type: str
    message: str
    traceback: str = ""
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False)

    def __str__(self) -> str:
        where = f" (task {self.key})" if self.key else ""
        return f"[{self.kind}] {self.error_type}: {self.message}{where}"

    def raise_(self) -> None:
        if self.exception is not None:
            raise self.exception
        raise WorkerError(str(self))


@dataclass
class Ticket:
    """One admitted task; ``done`` is set once ``outcome`` is final."""

    index: int
    key: str
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    outcome: Any = field(default=None, repr=False)
    #: Host-monotonic time the task *started on a worker* (None while
    #: queued); used by the deadline sweep, never by task results.
    started_at: Optional[float] = field(default=None, repr=False)


def _decode_result_body(key: str, body: bytes) -> Any:
    """Decode one ``("done", ...)`` body from the worker wire protocol.

    Returns the task's value, or a :class:`WorkerFailure` row carrying
    the worker-side error.
    """
    try:
        decoded = pickle.loads(body)
    except Exception as exc:  # pragma: no cover - defensive
        return WorkerFailure(
            key=key, kind="error", error_type=type(exc).__name__,
            message=f"could not decode worker result: {exc}",
        )
    if decoded[0] == "ok":
        return decoded[1]
    _, error_type, message, trace, exc_bytes = decoded
    exception: Optional[BaseException] = None
    if exc_bytes is not None:
        try:
            exception = pickle.loads(exc_bytes)
        except Exception:  # pragma: no cover - worker pre-validated
            exception = None
    return WorkerFailure(
        key=key, kind="error", error_type=error_type, message=message,
        traceback=trace, exception=exception,
    )


def _run_inline(fn: Callable[..., Any], args: Tuple[Any, ...]) -> Any:
    """Run one task in the parent; a raise becomes its failure row."""
    try:
        return fn(*args)
    except Exception as exc:
        return WorkerFailure(
            key="", kind="error", error_type=type(exc).__name__,
            message=str(exc), traceback=traceback_module.format_exc(),
            exception=exc,
        )


def _payload(fn: Callable[..., Any], args: Tuple[Any, ...],
             kwargs: Optional[Dict[str, Any]]) -> bytes:
    """Pickle one task; raises when it cannot travel to a worker."""
    return pickle.dumps((fn, args, kwargs or {}),
                        protocol=pickle.HIGHEST_PROTOCOL)


class PoolService:
    """Warm spawn-context workers behind a thread-safe ticket interface.

    Usage::

        with PoolService(jobs=4, timeout=120.0) as pool:
            outcomes = pool.map(run_point, [(params,) for ...])

        service = PoolService(jobs=2, timeout=120.0, max_pending=16)
        service.prewarm()
        outcome = service.run(run_scenario, (spec,), key="e2e")

    Each outcome is the task's value or a :class:`WorkerFailure`.
    ``jobs`` follows the uniform contract (``0`` = one worker per CPU).
    ``timeout`` is every task's deadline (seconds from the moment it
    starts on a worker; ``None`` disables); ``max_pending`` bounds the
    unfinished tasks (``None``: unbounded).

    Nothing is started until the first task reaches a worker or
    :meth:`prewarm` is called, so a pool that only ever sees serial
    work costs no process, no thread and no queue.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None,
                 max_pending: Optional[int] = None) -> None:
        if max_pending is not None and max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.max_pending = max_pending
        self.worker_restarts = 0
        self.workers_spawned = 0
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.collector_errors = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._task_queue: Any = None
        self._result_queue: Any = None
        self._collector: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._tickets: Dict[int, Ticket] = {}
        #: worker id -> process handle.
        self._workers: Dict[int, Any] = {}
        #: worker id -> the ticket it is currently running.
        self._running: Dict[int, Ticket] = {}
        #: The worker count being kept alive (rule (a)).
        self._warm = 0
        self._next_index = 0
        self._next_worker_id = 0
        self._closed = threading.Event()

    def __enter__(self) -> "PoolService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "workers": len(self._workers),
                "pending": len(self._tickets),
                "in_flight": len(self._running),
                "queue_depth": len(self._tickets) - len(self._running),
                "worker_restarts": self.worker_restarts,
                "workers_spawned": self.workers_spawned,
                "tasks_submitted": self.tasks_submitted,
                "tasks_completed": self.tasks_completed,
                "collector_errors": self.collector_errors,
            }

    # ------------------------------------------------------------------
    # admission and waiting
    # ------------------------------------------------------------------
    def prewarm(self) -> None:
        """Have all ``jobs`` workers up before the first task."""
        with self._lock:
            self._spawn_missing_locked(self.jobs)

    def submit(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
               kwargs: Optional[Dict[str, Any]] = None, *,
               key: str = "") -> Ticket:
        """Admit one task; returns a :class:`Ticket` to wait on.

        Raises :class:`QueueFullError` (rule (d)),
        :class:`ServiceClosedError` after :meth:`close`, and
        ``TypeError``/``pickle.PicklingError`` when the payload cannot
        travel to a worker: tasks must be module-level callables.
        """
        return self._admit([_payload(fn, args, kwargs)], key or None)[0]

    def result(self, ticket: Ticket, wait: Optional[float] = None) -> Any:
        """Block until ``ticket`` finishes; return its value or failure.

        ``wait`` bounds the parent-side wait (seconds); past it a
        ``kind="timeout"`` :class:`WorkerFailure` is returned *without*
        cancelling the task (the pool's deadline does that).
        """
        if not ticket.done.wait(wait):
            return WorkerFailure(
                key=ticket.key, kind="timeout", error_type="TimeoutError",
                message=f"gave up waiting after {wait:g}s "
                        "(task may still be running)",
            )
        return ticket.outcome

    def run(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
            kwargs: Optional[Dict[str, Any]] = None, *, key: str = "",
            wait: Optional[float] = None) -> Any:
        """:meth:`submit` + :meth:`result` in one call."""
        return self.result(self.submit(fn, args, kwargs, key=key), wait=wait)

    def map(self, fn: Callable[..., Any],
            argsets: Sequence[Tuple[Any, ...]]) -> List[Any]:
        """Run ``fn(*args)`` for every ``args``; outcomes in submission
        order, never completion order.

        With ``jobs<=1`` or a single task the batch runs inline in the
        parent.  Otherwise every task is pickled (an unpicklable one
        raises, as in :meth:`submit`, before anything is queued) and
        admitted, and the results are read back in submission order.
        """
        if self._closed.is_set():
            raise ServiceClosedError("cannot map on a closed pool")
        if self.jobs <= 1 or len(argsets) <= 1:
            return [_run_inline(fn, args) for args in argsets]
        tickets = self._admit(
            [_payload(fn, args, None) for args in argsets], "")
        return [self.result(ticket) for ticket in tickets]

    def _admit(self, payloads: List[bytes],
               key: Optional[str]) -> List[Ticket]:
        """Queue every pickled task, or none of them.  ``key=None``
        names each ticket after its index."""
        with self._lock:
            if self._closed.is_set():
                raise ServiceClosedError("cannot submit to a closed pool")
            if (self.max_pending is not None
                    and len(self._tickets) + len(payloads) > self.max_pending):
                raise QueueFullError(
                    f"pool already has {len(self._tickets)} unfinished "
                    f"task(s) (max_pending={self.max_pending})")
            tickets = []
            for payload in payloads:
                index = self._next_index
                self._next_index += 1
                ticket = Ticket(index=index,
                                key=f"task-{index}" if key is None else key)
                self._tickets[index] = ticket
                self.tasks_submitted += 1
                self._spawn_missing_locked(len(self._tickets))
                self._task_queue.put((index, payload))
                tickets.append(ticket)
        return tickets

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the collector, retire the workers, fail open tickets.
        Idempotent."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._collector is not None:
            self._collector.join(timeout=_JOIN_SECONDS + 1.0)
        with self._lock:
            for _ in self._workers:
                try:
                    self._task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - teardown
                    break
            deadline = time.monotonic() + _JOIN_SECONDS
            for process in self._workers.values():
                process.join(timeout=max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=_JOIN_SECONDS)
            self._workers.clear()
            self._running.clear()
            for ticket in list(self._tickets.values()):
                self._fail_locked(
                    ticket, "error", "ServiceClosedError",
                    "the pool was closed before the task finished")

    def _spawn_missing_locked(self, wanted: int = 0) -> None:
        """Rule (a): raise the kept-alive level to ``min(wanted, jobs)``
        if that is higher, then spawn up to it (caller holds the lock).
        The first spawn also creates the queues and the collector."""
        if self._closed.is_set():
            return
        self._warm = max(self._warm, min(wanted, self.jobs))
        if self._collector is None and self._warm > 0:
            self._task_queue = self._ctx.Queue()
            self._result_queue = self._ctx.Queue()
            self._collector = threading.Thread(
                target=self._collect, args=(self._result_queue,),
                name="repro-pool-collector", daemon=True)
            self._collector.start()
        while len(self._workers) < self._warm:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, self._task_queue, self._result_queue),
                daemon=True,
                name=f"repro-pool-worker-{worker_id}",
            )
            process.start()
            self._workers[worker_id] = process
            self.workers_spawned += 1

    def _retire_locked(self, worker_id: int, kind: str, error_type: str,
                       message: str) -> None:
        """Forget a worker that is gone and fail whatever it was running
        (the next :meth:`_spawn_missing_locked` replaces it)."""
        del self._workers[worker_id]
        self.worker_restarts += 1
        ticket = self._running.pop(worker_id, None)
        if ticket is not None:
            self._fail_locked(ticket, kind, error_type, message)

    # ------------------------------------------------------------------
    # collector thread
    # ------------------------------------------------------------------
    def _collect(self, results: Any) -> None:
        """Collector main loop: sweep, then wait for one message.

        Rule (c): every pending ticket waits on this thread, so whatever
        a sweep or a message throws is counted and skipped.
        """
        while not self._closed.is_set():
            try:
                with self._lock:
                    self._sweep_locked(results)
                message = results.get(timeout=_POLL_SECONDS)
                with self._lock:
                    self._handle_locked(message)
            except queue_module.Empty:
                continue
            except Exception:
                with self._lock:
                    self.collector_errors += 1

    def _handle_locked(self, message: Any) -> None:
        kind = message[0]
        if kind == "hello":
            pass
        elif kind == "start":
            _, worker_id, index = message
            ticket = self._tickets.get(index)
            if ticket is not None:
                ticket.started_at = time.monotonic()
                self._running[worker_id] = ticket
        elif kind == "done":
            _, worker_id, index, body = message
            self._running.pop(worker_id, None)
            ticket = self._tickets.get(index)
            if ticket is not None:  # else: cancelled by its deadline
                self._finish_locked(ticket, _decode_result_body(
                    ticket.key, body))
        else:
            raise ValueError(f"unknown result-queue message kind {kind!r}")

    def _sweep_locked(self, results: Any) -> None:
        """Replace dead workers; cancel tasks past the deadline."""
        dead = [(worker_id, process.exitcode)
                for worker_id, process in self._workers.items()
                if not process.is_alive()]
        if dead:
            # Rule (b): a dead process can send nothing more, so once the
            # queue is drained whatever it still "runs" truly crashed.
            try:
                while True:
                    self._handle_locked(results.get_nowait())
            except queue_module.Empty:
                pass
        for worker_id, exitcode in dead:
            self._retire_locked(
                worker_id, "crash", "WorkerCrash",
                f"worker {worker_id} exited with code {exitcode} while "
                f"running the task")
        now = time.monotonic()
        for worker_id, ticket in list(self._running.items()):
            if (self.timeout is not None and ticket.started_at is not None
                    and now - ticket.started_at > self.timeout):
                process = self._workers[worker_id]
                process.terminate()
                process.join(timeout=_JOIN_SECONDS)
                self._retire_locked(
                    worker_id, "timeout", "TimeoutError",
                    f"task exceeded its deadline of {self.timeout:g}s; "
                    f"worker {worker_id} was cancelled")
        self._spawn_missing_locked()

    def _fail_locked(self, ticket: Ticket, kind: str, error_type: str,
                     message: str) -> None:
        self._finish_locked(ticket, WorkerFailure(
            key=ticket.key, kind=kind, error_type=error_type,
            message=message))

    def _finish_locked(self, ticket: Ticket, outcome: Any) -> None:
        """Resolve one ticket (caller holds the lock)."""
        self._tickets.pop(ticket.index, None)
        ticket.outcome = outcome
        self.tasks_completed += 1
        ticket.done.set()
