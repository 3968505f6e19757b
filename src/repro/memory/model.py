"""The ``ConsistencyModel`` contract: pluggable coherence backends.

This module is the protocol-facing surface of a coherence engine as an
abstract backend contract, so a cluster can run the *same* workloads,
fault-tolerance baselines, verification layer and experiment harness on
the paper's memory model and on the sequentially consistent model it is
compared against:

* ``"entry"`` -- :class:`repro.memory.coherence.EntryConsistencyEngine`,
  the paper's modified Li-Hudak dynamic-distributed-manager protocol
  (the reference implementation);
* ``"sequential"`` -- :class:`repro.memory.sequential.SequentialConsistencyEngine`,
  an SC-ABD style write-through design (Ekström & Haridi, arXiv
  1608.02442): a home-process lock manager serializes CREW admission
  and every release-write is propagated to all replicas and
  acknowledged before the release completes.

A backend owns four things:

1. **admission** -- :meth:`ConsistencyModel.handle_acquire` /
   :meth:`ConsistencyModel.handle_release`, the syscall entry points the
   thread scheduler drives (CREW read/write admission);
2. **ownership movement and invalidation policy** -- whatever message
   protocol the backend speaks; its :attr:`ConsistencyModel.handlers`
   table maps each :class:`~repro.net.message.MessageKind` it owns to
   one handler, and the process routes those kinds to
   :meth:`ConsistencyModel.on_message`;
3. **mem-event emission** -- :meth:`ConsistencyModel.emit_mem_event`,
   the typed event stream the race detector, the dummy-coverage rule
   and the consistency-history listener subscribe to; every completed
   acquire must be reported as an ``"acquire"`` event carrying the
   version the thread acquired;
4. **recovery surface** -- the hooks the DiSOM recovery machinery calls
   on survivors.  Only the entry-consistency backend implements real
   recovery; the base class provides inert defaults so the sequential
   backend degrades cleanly (failure-free runs and abort-on-crash
   baselines).

Checkpoint hooks (:class:`CoherenceHooks`) remain part of the contract:
baselines account their overhead at the same integration points on
every backend.  The DiSOM checkpoint protocol itself is EC-only --
its logs record entry-consistency version/dependency structure -- and
selecting it together with the sequential backend raises ``ConfigError`` at
process construction (see :mod:`repro.cluster.process`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, ClassVar, Dict, List, Mapping,
                    Optional, Tuple)

from repro.analysis.metrics import ProcessMetrics
from repro.errors import ConfigError
from repro.memory.objects import ObjectDirectory, SharedObject, SharedObjectSpec
from repro.net.message import (
    AcquireRequest,
    GrantControl,
    Message,
    MessageHandler,
    MessageKind,
    RequestControl,
)
from repro.observers import Observers
from repro.sim.kernel import Kernel
from repro.sim.tracing import TRACE_GATE
from repro.threads.scheduler import ThreadScheduler
from repro.threads.thread import Thread
from repro.types import (
    AcquireType,
    ExecutionPoint,
    ObjectId,
    ProcessId,
    Tid,
)
from repro.verify.events import MemEvent, publish_mem_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.threads.syscalls import Release


@dataclass(slots=True)
class PendingRequest:
    """An acquire request queued at (or travelling towards) its server.

    Under entry consistency the server is the current owner at the end
    of the probOwner chain; under sequential consistency it is the
    object's home process.  Slotted: one is allocated per remote acquire,
    and slot access keeps the grant path's attribute reads cheap.
    """

    obj_id: ObjectId
    type: AcquireType
    p_acq: ProcessId
    ep_acq: ExecutionPoint
    hops: int = 0
    #: Set when the request is from a thread of *this* process.
    thread: Optional[Thread] = None

    @property
    def is_local(self) -> bool:
        return self.thread is not None

    def wire_payload(self) -> AcquireRequest:
        return AcquireRequest(self.obj_id, self.type, self.p_acq, self.hops)

    def wire_control(self) -> RequestControl:
        # The checkpoint-protocol part of the request: [ep_acq] (paper 4.2
        # step 1); accounted as piggyback bytes.
        return RequestControl(self.ep_acq)


class CoherenceHooks:
    """Integration points for fault-tolerance protocols.  All no-ops here.

    The DiSOM checkpoint protocol (:mod:`repro.checkpoint.protocol`)
    overrides everything; baselines override subsets.  Every
    :class:`ConsistencyModel` backend calls these at the analogous
    points of its own protocol, so baseline overhead accounting works
    across consistency models.
    """

    def on_object_created(self, obj: SharedObject, spec: SharedObjectSpec) -> None:
        """Object declared at its home process (version V0 exists)."""

    def on_local_acquire(
        self,
        thread: Thread,
        obj: SharedObject,
        acq_type: AcquireType,
        ep_acq: ExecutionPoint,
        local_dep: Optional[ExecutionPoint],
    ) -> None:
        """A local acquire was granted (paper 4.2, local step 1)."""

    def on_remote_grant(self, obj: SharedObject,
                        req: PendingRequest) -> Optional[ExecutionPoint]:
        """The owner granted a remote request; returns the reply's
        ``ep_prd`` (paper 4.2 step 2: ``[ep_prd, version]``), or None
        when the scheme ships none."""
        return None

    def on_reply_received(
        self,
        thread: Thread,
        obj: SharedObject,
        acq_type: AcquireType,
        ep_acq: ExecutionPoint,
        p_prd: ProcessId,
        control: GrantControl,
    ) -> None:
        """The requester processed an acquire reply (paper 4.2 step 3)."""

    def on_release_write(self, thread: Thread, obj: SharedObject) -> None:
        """A release-write produced a new version (paper 4.2 step 4)."""

    def on_before_grant_data(self, obj: SharedObject, req: PendingRequest) -> None:
        """Called just before the owner ships object data to another
        process.  The Janssens-Fuchs baseline checkpoints here ("a process
        is checkpointed exactly before its updates become visible")."""

    def on_ownership_installed(self, obj: SharedObject,
                               ep_acq: ExecutionPoint) -> None:
        """Ownership of a version produced elsewhere was installed while
        the object remains grantable (a write acquire deferred behind
        sibling readers): the protocol may need to materialize state for
        the new owner (DiSOM synthesizes the last version's log entry).
        ``ep_acq`` is the deferred local write acquire that will supersede
        the installed version once the sibling readers release."""


class ConsistencyModel:
    """Abstract per-process coherence backend (one instance per process).

    Subclasses implement :meth:`handle_acquire` and
    :meth:`handle_release`, declare :attr:`name` and their
    :attr:`handlers` table, and drive completion through the shared
    helpers (:meth:`emit_mem_event`, ``scheduler.complete``).  The
    recovery surface defaults to inert no-ops; only the
    entry-consistency backend overrides it.
    """

    #: Registry name of the backend (``ClusterConfig(consistency=...)``).
    name: ClassVar[str] = "abstract"
    #: The backend's routing table: each MessageKind it owns -> its one
    #: handler.  The process routes these kinds to :meth:`on_message`.
    handlers: ClassVar[Mapping[MessageKind, MessageHandler]] = {}

    def __init__(
        self,
        pid: ProcessId,
        kernel: Kernel,
        directory: ObjectDirectory,
        scheduler: ThreadScheduler,
        metrics: ProcessMetrics,
        send_message: Callable[[MessageKind, ProcessId, Any, Optional[Any]], None],
        hooks: Optional[CoherenceHooks] = None,
        strict_invalidation_acks: bool = True,
        *,
        observers: Observers,
    ) -> None:
        self.pid = pid
        self.kernel = kernel
        #: The run's observer registry (see :mod:`repro.observers`).
        self.observers = observers
        self.directory = directory
        self.scheduler = scheduler
        self.metrics = metrics
        self.send_message = send_message
        self.hooks = hooks if hooks is not None else CoherenceHooks()
        self.strict_invalidation_acks = strict_invalidation_acks
        #: Cluster-wide grant-once guard (set by the system): called with
        #: the acquire ep before granting; returns False when the acquire
        #: was already granted somewhere, in which case the (re-issued
        #: duplicate) request is discarded.  This realizes the paper's
        #: "duplicate requests are detected and discarded by the memory
        #: coherence protocol" (section 4.3.1 step 5); see DESIGN.md.
        self.grant_gate: Callable[[ExecutionPoint, ProcessId], bool] = (
            lambda ep, pid: True
        )
        #: All cluster pids (set by the process); the sequential backend
        #: uses it as the replica set for write propagation.
        self.peer_lister: Callable[[], List[ProcessId]] = list
        #: Crashed processes we must not grant to (failure detector input).
        self._known_crashed: set = set()
        #: Objects gated during recovery replay (set by the replayer).
        self.blocked_objects: set = set()
        self._barrier_waiters: Dict[ObjectId, List[Tuple[Thread, Any]]] = {}
        #: When False, incoming coherence messages are buffered (recovery).
        self.accepting = True
        self._buffered: List[Message] = []
        #: Gate for post-replay threads: while True, normal-mode acquires
        #: by local threads are deferred until recovery fully completes.
        self.hold_normal_acquires = False
        self._held_acquires: List[Tuple[Thread, Any]] = []

    # ==================================================================
    # syscall entry points (called by the process / scheduler handler)
    # ==================================================================
    def handle_acquire(self, thread: Thread, syscall: Any) -> None:
        raise NotImplementedError

    def handle_release(self, thread: Thread, syscall: "Release") -> None:
        raise NotImplementedError

    # ==================================================================
    # message handling
    # ==================================================================
    def on_message(self, message: Message) -> None:
        """Handle a message of a kind in :attr:`handlers`; buffered
        while recovery holds the backend not accepting."""
        if not self.accepting:
            self._buffered.append(message)
            return
        self.handlers[message.kind](self, message)

    def flush_buffered(self) -> None:
        """Process messages buffered during recovery, in arrival order."""
        buffered, self._buffered = self._buffered, []
        for message in buffered:
            self.on_message(message)

    # ==================================================================
    # memory events (verification layer input)
    # ==================================================================
    def emit_mem_event(
        self,
        kind: str,
        tid: Tid,
        lt: int,
        obj: SharedObject,
        mode: AcquireType,
        *,
        local: bool = False,
        replayed: bool = False,
        version: Optional[int] = None,
    ) -> None:
        """Publish one memory event: a typed
        :class:`~repro.verify.events.MemEvent` for the registry's
        listeners (race detector, dummy-coverage rule, acquire history)
        and, when the trace is being fed, its human-readable ``"mem"``
        row.

        Every event carries the accessed object id *and* the guarding
        sync object id so the detector never has to re-derive the
        object-to-guard association from context.  ``version`` defaults
        to the local copy's; pass it when the thread acquired a version
        the copy does not hold.
        """
        tracing = TRACE_GATE.active and self.kernel.trace.enabled
        if not (tracing or self.observers.active):
            return
        publish_mem_event(
            MemEvent(kind, self.kernel.now, self.pid, tid, lt, obj.obj_id,
                     obj.guard_id, mode.value, local, replayed,
                     obj.version if version is None else version),
            self.observers,
            self.kernel.trace if tracing else None,
        )

    # ==================================================================
    # recovery surface (used by repro.checkpoint.recovery/replay; real
    # implementations are EC-only, the defaults keep the sequential
    # backend degrading cleanly on the failure-free / abort-on-crash paths)
    # ==================================================================
    def enter_recovery_mode(self) -> None:
        self.accepting = False

    def exit_recovery_mode(self) -> None:
        self.accepting = True
        self.flush_buffered()

    def release_barrier(self, obj_id: ObjectId) -> None:
        """Replay finished installing versions of ``obj_id``; re-admit
        acquires that were deferred at the barrier."""
        self.blocked_objects.discard(obj_id)
        waiters = self._barrier_waiters.pop(obj_id, [])
        for thread, syscall in waiters:
            # Re-admit through the process-level handler so replay
            # progress tracking observes the outcome.
            self.kernel.call_soon(self.scheduler.handler.handle_acquire,
                                  thread, syscall,
                                  label=f"barrier-release {obj_id}")

    def release_held_acquires(self) -> None:
        """Recovery fully completed: admit held normal-mode acquires."""
        self.hold_normal_acquires = False
        held, self._held_acquires = self._held_acquires, []
        for thread, syscall in held:
            self.kernel.call_soon(self.scheduler.handler.handle_acquire,
                                  thread, syscall,
                                  label="recovery-release-acquire")

    def note_crashed(self, pid: ProcessId) -> None:
        """Failure detector input: never grant to a dead process."""
        self._known_crashed.add(pid)

    def note_recovered(self, pid: ProcessId, resume_lts: Dict[Tid, int]) -> None:
        """RECOVERY_DONE: the process is back; forget its crash."""
        self._known_crashed.discard(pid)

    def reissue_pending(self) -> int:
        """Re-issue acquire requests that may have died with a process.
        Only meaningful for backends that support recovery."""
        return 0

    # ==================================================================
    # introspection (system quiescence checks)
    # ==================================================================
    def has_pending_acks(self) -> bool:
        return False


#: Names of the registered consistency backends, in registry order.
#: ``server.scenario.CONSISTENCY_MODELS`` and the CLI ``--consistency``
#: choices derive from this tuple; keep it in sync with
#: :func:`consistency_backends`.
CONSISTENCY_MODELS: Tuple[str, ...] = ("entry", "sequential")


def consistency_backends() -> Dict[str, type]:
    """The live backend registry: name -> ConsistencyModel subclass.

    Built lazily to avoid import cycles (the backends import this
    module for the base class).
    """
    from repro.memory.coherence import EntryConsistencyEngine
    from repro.memory.sequential import SequentialConsistencyEngine

    return {
        "entry": EntryConsistencyEngine,
        "sequential": SequentialConsistencyEngine,
    }


def resolve_consistency(name: str) -> type:
    """Look up a backend class by registry name (``ConfigError`` if unknown)."""
    backends = consistency_backends()
    try:
        return backends[name]
    except KeyError:
        raise ConfigError(
            f"unknown consistency model {name!r}; "
            f"one of {list(CONSISTENCY_MODELS)}"
        ) from None
