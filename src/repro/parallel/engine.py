"""The worker-pool engine: the one owner of worker-process lifecycle.

:class:`~repro.parallel.pool.RunPool` (batch ``map``) and
:class:`~repro.parallel.service.PoolService` (request/response) are two
faces of this engine; neither spawns, watches, kills or joins a process
itself.  The engine owns:

* **tickets** -- one :class:`Ticket` per admitted task, resolved exactly
  once with the task's value or a typed :class:`WorkerFailure` row;
* **the collector thread** -- the only reader of the result queue
  (``hello``/``start``/``done``, see :mod:`repro.parallel.worker`);
* **the sweep** -- dead-worker detection, per-ticket deadline kills and
  respawn, run between messages.

The rules both faces share (DESIGN.md section 2.9):

(a) *Worker count.*  The engine keeps ``min(jobs, unfinished tasks)``
    workers alive, at the highest level that expression has reached: a
    warm worker is never retired before :meth:`WorkerEngine.close`, and
    a dead one is replaced.  :meth:`WorkerEngine.prewarm` raises the
    level ahead of the first task.
(b) *A result beats a crash.*  When a worker is found dead, everything
    it managed to send is handled before its task is declared crashed,
    so a ``done`` sent before the death wins.  A deliberate deadline
    kill stays a ``timeout`` failure: a late ``done`` finds no ticket.
(c) *Bad messages are skipped.*  A malformed or undecodable result-queue
    message is counted in ``collector_errors`` and dropped -- every
    pending ticket waits on the collector, so nothing a message can
    throw may kill it.
(d) *Deadlines belong to tickets.*  Each ticket carries its own
    ``timeout`` (seconds from the moment it starts on a worker).

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
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

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
    """Raised at admission when the caller's bound on unfinished tasks
    is already reached -- the caller should shed load."""


class ServiceClosedError(RuntimeError):
    """Raised when submitting to (or waiting on) a closed engine."""


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

    index: int
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
    timeout: Optional[float]
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    outcome: Any = field(default=None, repr=False)
    #: Host-monotonic time the task *started on a worker* (None while
    #: queued); used by the deadline sweep, never by task results.
    started_at: Optional[float] = field(default=None, repr=False)
    #: Where the engine announces completion besides ``done`` (a batch
    #: caller waiting on many tickets reads them here as they finish).
    completed: Optional[queue_module.Queue[Ticket]] = field(
        default=None, repr=False)


def decode_result_body(index: int, key: str, body: bytes) -> Any:
    """Decode one ``("done", ...)`` body from the worker wire protocol.

    Returns the task's value, or a :class:`WorkerFailure` row carrying
    the worker-side error.
    """
    try:
        decoded = pickle.loads(body)
    except Exception as exc:  # pragma: no cover - defensive
        return WorkerFailure(
            index=index, key=key, kind="error",
            error_type=type(exc).__name__,
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
        index=index, key=key, kind="error",
        error_type=error_type, message=message, traceback=trace,
        exception=exception,
    )


class WorkerEngine:
    """Warm spawn-context workers behind a thread-safe ticket interface.

    Nothing is started until the first :meth:`admit` or :meth:`prewarm`,
    so an engine that only ever sees serial work costs no process, no
    thread and no queue.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = resolve_jobs(jobs)
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

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Tasks admitted but not yet finished (queued + running)."""
        with self._lock:
            return len(self._tickets)

    @property
    def in_flight(self) -> int:
        """Tasks currently executing on a worker."""
        with self._lock:
            return len(self._running)

    @property
    def queue_depth(self) -> int:
        """Tasks admitted but not yet started on any worker."""
        with self._lock:
            return len(self._tickets) - len(self._running)

    @property
    def workers(self) -> int:
        with self._lock:
            return len(self._workers)

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
    # admission
    # ------------------------------------------------------------------
    def prewarm(self, count: int) -> None:
        """Have ``min(count, jobs)`` workers up before the first task."""
        with self._lock:
            self._spawn_missing_locked(count)

    def admit(self, payload: bytes, key: Optional[str],
              timeout: Optional[float], limit: Optional[int] = None,
              completed: Optional[queue_module.Queue[Ticket]] = None,
              ) -> Ticket:
        """Queue one pickled ``(fn, args, kwargs)`` task.

        ``key=None`` names the ticket after its index.  ``limit`` is the
        caller's bound on unfinished tasks: :class:`QueueFullError` is
        raised, and nothing queued, when it is already reached.
        """
        with self._lock:
            if self._closed.is_set():
                raise ServiceClosedError("cannot submit to a closed pool")
            if limit is not None and len(self._tickets) >= limit:
                raise QueueFullError(
                    f"service already has {len(self._tickets)} unfinished "
                    f"task(s) (max_pending={limit})"
                )
            index = self._next_index
            self._next_index += 1
            ticket = Ticket(index=index,
                            key=f"task-{index}" if key is None else key,
                            timeout=timeout, completed=completed)
            self._tickets[index] = ticket
            self.tasks_submitted += 1
            self._spawn_missing_locked(len(self._tickets))
            self._task_queue.put((index, payload))
        return ticket

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
                self._finish_locked(ticket, decode_result_body(
                    index, ticket.key, body))
        else:
            raise ValueError(f"unknown result-queue message kind {kind!r}")

    def _sweep_locked(self, results: Any) -> None:
        """Replace dead workers; cancel tasks past their deadline."""
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
            if (ticket.timeout is not None and ticket.started_at is not None
                    and now - ticket.started_at > ticket.timeout):
                process = self._workers[worker_id]
                process.terminate()
                process.join(timeout=_JOIN_SECONDS)
                self._retire_locked(
                    worker_id, "timeout", "TimeoutError",
                    f"task exceeded its deadline of {ticket.timeout:g}s; "
                    f"worker {worker_id} was cancelled")
        self._spawn_missing_locked()

    def _fail_locked(self, ticket: Ticket, kind: str, error_type: str,
                     message: str) -> None:
        self._finish_locked(ticket, WorkerFailure(
            index=ticket.index, key=ticket.key, kind=kind,
            error_type=error_type, message=message))

    def _finish_locked(self, ticket: Ticket, outcome: Any) -> None:
        """Resolve one ticket (caller holds the lock)."""
        self._tickets.pop(ticket.index, None)
        ticket.outcome = outcome
        self.tasks_completed += 1
        ticket.done.set()
        if ticket.completed is not None:
            ticket.completed.put(ticket)
