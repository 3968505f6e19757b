"""A DiSOM process: one per simulated workstation (paper section 3).

"Each process is viewed as a collection of resources, which provides an
execution environment for multiple threads.  These resources include an
address space, where a subset of the shared objects is mapped."

The process composes the thread scheduler, the entry-consistency coherence
engine and the checkpoint protocol, routes network messages between them
through one table built from the layers' ``handlers``, and implements the
piggyback attachment point for checkpoint control information.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.analysis.metrics import ProcessMetrics
from repro.checkpoint.policy import CheckpointPolicy
from repro.checkpoint.stable import StableStore
from repro.errors import ProtocolError
from repro.memory.model import resolve_consistency
from repro.memory.objects import ObjectDirectory, SharedObjectSpec
from repro.net.message import (
    GrantControl,
    Message,
    MessageKind,
    Piggyback,
    RequestControl,
)
from repro.net.network import Network
from repro.observers import Observers
from repro.sim.kernel import Kernel
from repro.sim.tracing import TRACE_GATE
from repro.threads.program import Program
from repro.threads.scheduler import ThreadScheduler
from repro.threads.syscalls import Log, Release
from repro.threads.thread import Thread
from repro.types import ProcessId, Tid


class DisomProcess:
    """One DiSOM process hosting one fault-tolerance scheme."""

    def __init__(
        self,
        pid: ProcessId,
        kernel: Kernel,
        network: Network,
        stable_store: StableStore,
        system: Any,
        protocol_factory: Any,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        strict_invalidation_acks: bool = True,
        consistency: str = "entry",
    ) -> None:
        self.pid = pid
        self.kernel = kernel
        self.network = network
        self.stable_store = stable_store
        self.system = system
        #: The run's observer registry: the protocol, its log, the
        #: engine and recovery all notify this one object.
        self.observers: Observers = system.observers
        self.alive = True
        self.metrics = ProcessMetrics()
        self.directory = ObjectDirectory(pid)
        self.threads: dict[Tid, Thread] = {}
        self.scheduler = ThreadScheduler(kernel, self, name=f"P{pid}")
        self.checkpoint_policy = checkpoint_policy or CheckpointPolicy()
        self.consistency = consistency
        engine_cls = resolve_consistency(consistency)
        self.checkpoint_protocol = protocol_factory(self)
        self.engine = engine_cls(
            pid=pid,
            kernel=kernel,
            directory=self.directory,
            scheduler=self.scheduler,
            metrics=self.metrics,
            send_message=self._send_coherence,
            hooks=self.checkpoint_protocol,
            strict_invalidation_acks=strict_invalidation_acks,
            observers=self.observers,
        )
        self.engine.peer_lister = self.peer_pids
        #: MessageKind -> the one layer entry that handles it: the
        #: scheme's bound handlers, then the engine's kinds (which win
        #: where both claim one) through its buffering ``on_message``.
        routes: dict[MessageKind, Callable[[Message], None]] = {
            kind: partial(handler, self.checkpoint_protocol)
            for kind, handler in self.checkpoint_protocol.handlers.items()}
        routes.update(dict.fromkeys(self.engine.handlers,
                                    self.engine.on_message))
        self._routes = routes
        #: Host slots for the scheme's recovery: set while this process
        #: is being recovered; the replayer owns acquire routing.
        self.recovery_manager: Optional[Any] = None
        self.replayer: Optional[Any] = None
        self._next_local_thread = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def declare_object(self, spec: SharedObjectSpec) -> None:
        obj = self.directory.declare(spec)
        self.engine.hooks.on_object_created(obj, spec)

    def spawn_thread(self, program: Program) -> Thread:
        tid = Tid.of(self.pid, self._next_local_thread)
        self._next_local_thread += 1
        stream_name = f"thread/{tid.pid}.{tid.local}"
        rng = self.kernel.rng

        def rng_factory(fresh: bool):
            if fresh:
                return rng.fresh_stream(stream_name)
            return rng.stream(stream_name)

        thread = Thread(tid, program, rng_factory)
        self.threads[tid] = thread
        self.scheduler.add(thread)
        return thread

    def start(self) -> None:
        """Begin executing threads (the protocol may take an initial
        checkpoint and arm its timers in ``on_start``)."""
        self.checkpoint_protocol.on_start()
        self.scheduler.start_all()

    def peer_pids(self) -> list[ProcessId]:
        return self.system.all_pids()

    # ------------------------------------------------------------------
    # SyscallHandler interface (driven by the ThreadScheduler)
    # ------------------------------------------------------------------
    def handle_acquire(self, thread: Thread, syscall: Any) -> None:
        if not self.alive:
            return
        if self.replayer is not None and self.replayer.wants(thread):
            self.replayer.handle_acquire(thread, syscall)
        else:
            self.engine.handle_acquire(thread, syscall)
            if self.replayer is not None:
                # The thread may just have parked at the end-of-recovery
                # gate; that can complete the replay phase.
                self.replayer.after_event()

    def handle_release(self, thread: Thread, syscall: Release) -> None:
        if not self.alive:
            return
        self.engine.handle_release(thread, syscall)
        if self.replayer is not None:
            self.replayer.note_release(thread, syscall.obj_id)
            self.replayer.after_event()

    def handle_log(self, thread: Thread, syscall: Log) -> None:
        if TRACE_GATE.active:
            self.kernel.trace.emit(
                self.kernel.now, "app", f"{thread.tid}: {syscall.message}",
                **syscall.fields
            )
        self.scheduler.complete(thread, None)

    def on_thread_done(self, thread: Thread) -> None:
        if TRACE_GATE.active:
            self.kernel.trace.emit(self.kernel.now, "thread",
                                   f"{thread.tid} finished")
        if self.replayer is not None:
            self.replayer.after_event()
        self.system.note_thread_event()

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def _send_coherence(
        self,
        kind: MessageKind,
        dst: ProcessId,
        payload: Any,
        control: Optional[RequestControl | GrantControl],
    ) -> None:
        """Send a coherence message, attaching pending checkpoint piggyback."""
        dummies, ckp_sets = self.checkpoint_protocol.collect_piggyback(dst)
        message = Message(self.pid, dst, kind, payload,
                          Piggyback(control, dummies, ckp_sets))
        self.network.send(message)
        self.checkpoint_protocol.on_message_sent(message)

    def send_raw(
        self,
        kind: MessageKind,
        dst: ProcessId,
        payload: Any,
        dummies: Optional[list] = None,
        ckp_sets: Optional[list] = None,
    ) -> None:
        """Send a non-coherence message (recovery layer, eager transports);
        it carries a piggyback only when given dummies or CkpSets."""
        piggyback = None
        if dummies or ckp_sets:
            piggyback = Piggyback(None, dummies or [], ckp_sets or [])
        message = Message(self.pid, dst, kind, payload, piggyback)
        self.network.send(message)
        self.checkpoint_protocol.on_message_sent(message)

    def deliver(self, message: Message) -> None:
        """Network entry point for this process."""
        if not self.alive:
            return
        if not self.checkpoint_protocol.filter_incoming(message):
            return
        # Checkpoint piggyback is consumed on arrival even when the
        # coherence payload is buffered (recovery): shipped dummy entries
        # must never be dropped.
        piggyback = message.piggyback
        if piggyback is not None and (piggyback.dummies or piggyback.ckp_sets):
            self.checkpoint_protocol.on_piggyback(
                message.src, piggyback.dummies, piggyback.ckp_sets)
        route = self._routes.get(message.kind)
        if route is None:
            raise ProtocolError(f"P{self.pid}: unhandled message {message}")
        route(message)

    # ------------------------------------------------------------------
    # failure
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop halt: volatile state is lost, timers die."""
        self.alive = False
        self.scheduler.kill()
        self.checkpoint_protocol.stop_timer()
        self.network.mark_crashed(self.pid)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def all_threads_done(self) -> bool:
        return all(t.done for t in self.threads.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "crashed"
        return f"DisomProcess(P{self.pid}, {state}, threads={len(self.threads)})"
