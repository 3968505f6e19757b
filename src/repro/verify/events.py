"""Memory-event model: the checkers' input alphabet.

The coherence engine builds one typed :class:`MemEvent` per memory /
synchronization event (see ``ConsistencyModel.emit_mem_event``) and
hands it to :func:`publish_mem_event`, the one place that knows where
an event goes: the run's :class:`~repro.observers.Observers` registry,
as ``on_mem_event``, and a ``"mem"`` trace row that keeps the frozen
event and renders it (:func:`mem_row`) only when read.  Each event
carries both the accessed object id and the id of the guarding sync
object, so consumers never re-derive the object-to-guard association.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.types import ObjectId, Tid

#: The event kinds the coherence engine emits.
KINDS = ("acquire", "read", "write", "release")


@dataclass(frozen=True, slots=True)
class MemEvent:
    """One memory or synchronization event of the simulated execution.

    ``kind`` is one of ``acquire``/``read``/``write``/``release``;
    ``mode`` is the acquire mode in effect (``"R"`` or ``"W"``).
    ``local`` marks events satisfied without messages (local acquires);
    ``replayed`` marks events re-emitted by recovery replay.
    """

    kind: str
    time: float
    pid: int
    tid: Tid
    lt: int
    obj_id: ObjectId
    sync_id: ObjectId
    mode: str
    local: bool = False
    replayed: bool = False
    version: int = 0

    @property
    def key(self) -> tuple[Tid, int, str, ObjectId]:
        """Identity of the logical access.

        Logical time increments on every acquire, so ``(tid, lt)`` pins
        one bracketed access and ``kind``/``obj_id`` disambiguate the
        events within it.  A replayed or re-executed event carries the
        same key as its original -- deterministic replay reproduces the
        same accesses -- which is what de-duplication keys on.
        """
        return (self.tid, self.lt, self.kind, self.obj_id)

    def __str__(self) -> str:
        flags = "".join(
            flag for flag, on in (("L", self.local), ("P", self.replayed)) if on
        )
        suffix = f" [{flags}]" if flags else ""
        return (f"t={self.time:.3f} {self.kind} {self.obj_id}(v{self.version}) "
                f"{self.mode} by {self.tid}@{self.lt}{suffix}")


def mem_row(event: MemEvent) -> tuple[str, dict[str, Any]]:
    """Render ``event``'s ``"mem"`` trace row (text and fields)."""
    return (f"{event.kind} {event.obj_id} {event.mode} {event.tid}@{event.lt}",
            {"kind": event.kind, "pid": event.pid, "tid": event.tid,
             "lt": event.lt, "obj": event.obj_id, "sync": event.sync_id,
             "mode": event.mode, "version": event.version,
             "local": event.local, "replayed": event.replayed})


def publish_mem_event(event: MemEvent, observers: Any,
                      trace: Optional[Any] = None) -> None:
    """Record ``event`` as a ``"mem"`` row of ``trace`` (a
    :class:`~repro.sim.tracing.TraceLog`; ``None`` skips the row) and
    deliver it to the registry's listeners.  The row is for people;
    checkers subscribe."""
    if trace is not None:
        trace.emit(event.time, "mem", mem_row, event)
    if observers.active:
        observers.on_mem_event(event)
