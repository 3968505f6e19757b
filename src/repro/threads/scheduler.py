"""Per-process thread scheduler.

Each simulated process owns one :class:`ThreadScheduler`.  The scheduler
pulls syscalls off thread generators and routes them to the process's
:class:`SyscallHandler` (the entry-consistency engine, a baseline engine,
or the recovery replayer).  All continuations go through kernel events, so
thread interleaving is deterministic and totally ordered by the kernel.

Design rule: every syscall completion funnels through :meth:`complete`,
even synchronous ones.  Handlers never resume generators directly, which
keeps re-entrancy out of the protocol code and gives baselines (e.g. the
coordinated-checkpoint engine, which must freeze threads mid-protocol) a
single interception point.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from repro.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.threads.syscalls import (
    AcquireRead,
    AcquireWrite,
    Compute,
    Log,
    Release,
)
from repro.threads.thread import Thread, ThreadState


class SyscallHandler(Protocol):
    """The process-side personality of the scheduler.

    ``handle_acquire`` / ``handle_release`` / ``handle_log`` must eventually
    cause ``scheduler.complete(thread, result)`` to be called (immediately
    for synchronous operations, on message arrival for remote acquires).
    """

    def handle_acquire(self, thread: Thread, syscall: Any) -> None: ...

    def handle_release(self, thread: Thread, syscall: Release) -> None: ...

    def handle_log(self, thread: Thread, syscall: Log) -> None: ...

    def on_thread_done(self, thread: Thread) -> None: ...


class ThreadScheduler:
    """Drives a set of threads for one process."""

    def __init__(self, kernel: Kernel, handler: SyscallHandler, name: str = "") -> None:
        self.kernel = kernel
        self.handler = handler
        self.name = name
        self.alive = True
        self.threads: dict[Any, Thread] = {}
        #: Count of thread context activations (observability only).
        self.dispatches = 0
        #: Pre-rendered event labels per tid -- one dispatch/resume event
        #: is scheduled per syscall, so the f-strings are built once.
        self._labels: dict[Any, tuple[str, str, str]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def add(self, thread: Thread) -> None:
        if thread.tid in self.threads:
            raise SimulationError(f"duplicate thread {thread.tid}")
        self.threads[thread.tid] = thread
        tid = thread.tid
        self._labels[tid] = (f"step {tid}", f"resume {tid}", f"compute {tid}")

    def start_all(self) -> None:
        """Start every NEW thread (deterministic tid order)."""
        for tid in sorted(self.threads):
            thread = self.threads[tid]
            if thread.state is ThreadState.NEW:
                thread.start()
                self._dispatch(thread)

    def resume_restored(self, thread: Thread) -> None:
        """Kick a thread that was rebuilt from a checkpoint/restore."""
        if thread.done:
            self.handler.on_thread_done(thread)
            return
        self._dispatch(thread)

    def kill(self) -> None:
        """Fail-stop: stop driving threads; pending events become no-ops."""
        self.alive = False
        for thread in self.threads.values():
            if not thread.done:
                thread.state = ThreadState.FAILED

    # ------------------------------------------------------------------
    # the dispatch / complete cycle
    # ------------------------------------------------------------------
    def _dispatch(self, thread: Thread) -> None:
        labels = self._labels.get(thread.tid)
        label = labels[0] if labels else f"step {thread.tid}"
        self.kernel.call_soon(self._step, thread, label=label)

    def complete(self, thread: Thread, result: Any = None) -> None:
        """Complete the thread's pending syscall with ``result``.

        Safe to call from any protocol context; the actual generator resume
        happens in its own kernel event.
        """
        labels = self._labels.get(thread.tid)
        label = labels[1] if labels else f"resume {thread.tid}"
        self.kernel.call_soon(self._resume, thread, result, label=label)

    def _resume(self, thread: Thread, result: Any) -> None:
        if not self.alive or thread.state is ThreadState.FAILED:
            return
        thread.resume(result)
        self._step(thread)

    def _step(self, thread: Thread) -> None:
        if not self.alive or thread.state is ThreadState.FAILED:
            return
        if thread.done:
            self.handler.on_thread_done(thread)
            return
        syscall = thread.pending_syscall
        if syscall is None:
            raise SimulationError(f"{thread.tid}: READY thread with no syscall")
        self.dispatches += 1
        # Syscall classes are final (frozen, slotted, no subclasses), so
        # dispatch on class identity rather than isinstance chains.
        cls = syscall.__class__
        if cls is Compute:
            thread.state = ThreadState.WAIT_COMPUTE
            labels = self._labels.get(thread.tid)
            label = labels[2] if labels else f"compute {thread.tid}"
            self.kernel.schedule(
                syscall.duration, self.complete, thread, None,
                label=label,
            )
        elif cls is AcquireRead or cls is AcquireWrite:
            thread.state = ThreadState.WAIT_ACQUIRE
            self.handler.handle_acquire(thread, syscall)
        elif cls is Release:
            self.handler.handle_release(thread, syscall)
        elif cls is Log:
            self.handler.handle_log(thread, syscall)
        else:
            raise SimulationError(f"{thread.tid}: unknown syscall {syscall!r}")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def unfinished(self) -> list[Thread]:
        return [self.threads[tid] for tid in sorted(self.threads)
                if not self.threads[tid].done]
