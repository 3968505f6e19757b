"""Unified protocol observation: one registration object, many listeners.

:class:`Observers` is the only road an observation takes from a protocol
layer to anything that *consumes* it.  Every cluster owns exactly one
registry (``system.observers`` -- the ``ClusterConfig(observers=...)``
instance when one is given, a fresh empty one otherwise) and hands that
same object to every process it creates, recovery hosts included; the
process passes it on to its coherence engine, its fault-tolerance
protocol and the protocol's :class:`~repro.checkpoint.log.ProcessLog` at
construction.  There is no later wiring step, so a listener registered
at any time before ``run()`` sees the same events as one passed through
the config.  Call sites guard each notification with one attribute test
(``if observers.active:``), which is all an unobserved run pays.

The registry fans each notification out to every listener that
implements the corresponding method (listeners are duck-typed;
unimplemented callbacks are simply skipped).

Listener surface (thirteen callbacks, all optional)::

    on_log_append(pid, entry)            # regular log entry appended
    on_log_remove(pid, entry)            # regular log entry GC'd/removed
    on_restore(pid)                      # checkpoint restore rewound the log
    on_dummy_created(pid, dummy)         # local acquire recorded a dummy
    on_ckp_set(ckp_set)                  # CkpSet announced after a checkpoint
    on_gc_pair_drop(entry, pair, ckp_set)    # threadSet pair dropped by GC
    on_gc_dummy_drop(dummy, ckp_set)         # dummy entry dropped by GC
    on_gc_dep_drop(tid, dep, ckp_set)        # depSet entry dropped by GC
    on_recovery_phase(pid, phase)        # recovery entered a phase (a
                                         # checkpoint.recovery.RecoveryPhase)
    on_mem_event(event)                  # one acquire/read/write/release
                                         # (repro.verify.events.MemEvent)
    on_process_created(process)          # a process joined the cluster
                                         # (initial, or a recovery host)
    on_recovery_complete(pid)            # a recovery finished (any scheme)
    on_rollback(resume_lts)              # execution past {tid: lt} is void
                                         # (recovery or global rollback)

A completed acquire reaches a consumer only as an ``"acquire"``
``on_mem_event``; :class:`repro.memory.consistency.AcquireHistory`
folds those and ``on_rollback`` into the final execution's history.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List

#: Every callback a listener may implement, in one place so registration
#: and dispatch cannot drift apart.
CALLBACK_NAMES = (
    "on_log_append",
    "on_log_remove",
    "on_restore",
    "on_dummy_created",
    "on_ckp_set",
    "on_gc_pair_drop",
    "on_gc_dummy_drop",
    "on_gc_dep_drop",
    "on_recovery_phase",
    "on_mem_event",
    "on_process_created",
    "on_recovery_complete",
    "on_rollback",
)


class Observers:
    """Registry and fan-out dispatcher for protocol observation callbacks.

    The dispatch surface mirrors the listener surface: one ``on_*``
    method per entry of :data:`CALLBACK_NAMES`, generated below.
    Dispatch cost is one list scan per event over only the listeners
    that implement that event's callback, so a registry with, say, a
    single GC auditor adds nothing to the log-append hot path.
    """

    def __init__(self, *listeners: Any) -> None:
        #: True while at least one listener is registered: the one test
        #: a call site makes before building a notification.
        self.active = False
        self._listeners: List[Any] = []
        self._targets: dict[str, List[Any]] = {
            name: [] for name in CALLBACK_NAMES
        }
        for listener in listeners:
            self.register(listener)

    def register(self, listener: Any) -> Any:
        """Add ``listener``; returns it for chaining.  Idempotent."""
        if any(existing is listener for existing in self._listeners):
            return listener
        self._listeners.append(listener)
        self.active = True
        for name in CALLBACK_NAMES:
            method = getattr(listener, name, None)
            if callable(method):
                self._targets[name].append(method)
        return listener

    def unregister(self, listener: Any) -> None:
        self._listeners = [l for l in self._listeners if l is not listener]
        self.active = bool(self._listeners)
        for name in CALLBACK_NAMES:
            self._targets[name] = [
                m for m in self._targets[name]
                if getattr(m, "__self__", None) is not listener
            ]

    @property
    def listeners(self) -> List[Any]:
        return list(self._listeners)

    def __len__(self) -> int:
        return len(self._listeners)

    if TYPE_CHECKING:  # the generated on_* dispatchers, for type checkers
        def __getattr__(self, name: str) -> Callable[..., None]: ...


def _dispatcher(name: str) -> Callable[..., None]:
    def dispatch(self: Observers, *args: Any) -> None:
        # Fail-loud by design: a listener that raises stops the run.
        for method in self._targets[name]:
            method(*args)

    return dispatch


for _name in CALLBACK_NAMES:
    setattr(Observers, _name, _dispatcher(_name))
