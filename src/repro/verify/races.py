"""Entry-consistency race detector.

Entry consistency is a contract (paper section 3.1): every access to a
shared object must be bracketed by acquire/release on the object's
guarding synchronization object -- reads under read or write mode,
writes under write mode (CREW).  The detector consumes the typed
:class:`~repro.verify.events.MemEvent` stream and flags pairs of
conflicting accesses that the contract does not order:

* a *lockset fast path* (Eraser-style pre-filter): two accesses both
  made while properly holding the guard are serialized by the guard's
  CREW discipline and need no clock comparison;
* a *vector-clock happens-before* check for everything else: acquires
  join the sync object's clock into the thread's clock, releases join
  the thread's clock into the sync object's, and an unordered
  conflicting pair is a race.

Properly bracketed programs produce no findings; the detector exists to
catch hand-written workloads (or protocol bugs) that read or write
outside the required bracketing.  Replayed and re-executed events are
de-duplicated by logical identity (:attr:`MemEvent.key`) -- recovery
replays the same accesses deterministically and must not self-race.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.types import ObjectId, Tid
from repro.verify.events import MemEvent


class VectorClock:
    """A sparse vector clock over thread identifiers."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Dict[Tid, int]] = None) -> None:
        self._counts: Dict[Tid, int] = dict(counts) if counts else {}

    def get(self, tid: Tid) -> int:
        return self._counts.get(tid, 0)

    def tick(self, tid: Tid) -> None:
        self._counts[tid] = self._counts.get(tid, 0) + 1

    def join(self, other: "VectorClock") -> None:
        for tid, count in other._counts.items():
            if count > self._counts.get(tid, 0):
                self._counts[tid] = count

    def copy(self) -> "VectorClock":
        return VectorClock(self._counts)

    def __str__(self) -> str:
        inside = ",".join(
            f"{tid}:{self._counts[tid]}"
            for tid in sorted(self._counts, key=lambda t: (t.pid, t.local))
        )
        return f"VC({inside})"


@dataclass(frozen=True)
class RaceFinding:
    """Two conflicting, unordered accesses to the same object."""

    obj_id: ObjectId
    first: MemEvent
    second: MemEvent
    reason: str

    def __str__(self) -> str:
        return (f"race on {self.obj_id}: {self.reason}\n"
                f"    earlier: {self.first}\n"
                f"    later:   {self.second}")


@dataclass
class _Access:
    """One read or write with the clock it happened at."""

    event: MemEvent
    clock: VectorClock
    #: True when the guard was held in a sufficient mode at the access
    #: (read: R or W; write: W) -- the lockset fast path.
    guarded: bool


class RaceDetector:
    """Streaming detector: feed events in emission order, collect races."""

    def __init__(self) -> None:
        self.races: List[RaceFinding] = []
        self.events_seen = 0
        self._seen_keys: Set[Tuple[Tid, int, str, ObjectId]] = set()
        self._thread_clocks: Dict[Tid, VectorClock] = {}
        self._sync_clocks: Dict[ObjectId, VectorClock] = {}
        #: Guards currently held, per thread: sync id -> mode ("R"/"W").
        self._held: Dict[Tid, Dict[ObjectId, str]] = {}
        self._last_write: Dict[ObjectId, _Access] = {}
        #: Reads since the last write, per object.
        self._reads: Dict[ObjectId, List[_Access]] = {}

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def feed(self, event: MemEvent) -> None:
        if event.key in self._seen_keys:
            return  # replayed / re-executed duplicate of a processed event
        self._seen_keys.add(event.key)
        self.events_seen += 1
        if event.kind == "acquire":
            self._on_acquire(event)
        elif event.kind == "release":
            self._on_release(event)
        elif event.kind == "read":
            self._on_read(event)
        elif event.kind == "write":
            self._on_write(event)

    #: As a listener on an :class:`~repro.observers.Observers` registry
    #: the detector consumes each event as it is published.
    on_mem_event = feed

    # ------------------------------------------------------------------
    # synchronization events
    # ------------------------------------------------------------------
    def _clock(self, tid: Tid) -> VectorClock:
        clock = self._thread_clocks.get(tid)
        if clock is None:
            clock = VectorClock()
            self._thread_clocks[tid] = clock
        return clock

    def _on_acquire(self, event: MemEvent) -> None:
        clock = self._clock(event.tid)
        sync = self._sync_clocks.get(event.sync_id)
        if sync is not None:
            clock.join(sync)
        clock.tick(event.tid)
        self._held.setdefault(event.tid, {})[event.sync_id] = event.mode

    def _on_release(self, event: MemEvent) -> None:
        clock = self._clock(event.tid)
        clock.tick(event.tid)
        sync = self._sync_clocks.get(event.sync_id)
        if sync is None:
            sync = VectorClock()
            self._sync_clocks[event.sync_id] = sync
        sync.join(clock)
        self._held.get(event.tid, {}).pop(event.sync_id, None)

    def _guard_mode(self, event: MemEvent) -> Optional[str]:
        return self._held.get(event.tid, {}).get(event.sync_id)

    # ------------------------------------------------------------------
    # data events
    # ------------------------------------------------------------------
    def _on_read(self, event: MemEvent) -> None:
        guarded = self._guard_mode(event) in ("R", "W")
        access = _Access(event, self._clock(event.tid).copy(), guarded)
        last_write = self._last_write.get(event.obj_id)
        if last_write is not None and not self._ordered(last_write, access):
            self._report(last_write, access,
                         "read is concurrent with the last write")
        self._reads.setdefault(event.obj_id, []).append(access)

    def _on_write(self, event: MemEvent) -> None:
        guarded = self._guard_mode(event) == "W"
        access = _Access(event, self._clock(event.tid).copy(), guarded)
        last_write = self._last_write.get(event.obj_id)
        if last_write is not None and not self._ordered(last_write, access):
            self._report(last_write, access,
                         "write is concurrent with the previous write")
        for read in self._reads.get(event.obj_id, []):
            if not self._ordered(read, access):
                self._report(read, access,
                             "write is concurrent with a previous read")
        self._last_write[event.obj_id] = access
        self._reads[event.obj_id] = []

    def _ordered(self, earlier: _Access, later: _Access) -> bool:
        if earlier.event.tid == later.event.tid:
            return True  # program order
        if earlier.guarded and later.guarded:
            # Lockset fast path: both accesses held the (same, since
            # objects are self-guarded) guard in a sufficient mode; the
            # guard's CREW discipline serializes them.
            return True
        # Happens-before: the earlier thread's knowledge of its own
        # progress at the access must have reached the later thread.
        tid = earlier.event.tid
        return later.clock.get(tid) >= earlier.clock.get(tid)

    def _report(self, earlier: _Access, later: _Access, reason: str) -> None:
        self.races.append(RaceFinding(
            obj_id=later.event.obj_id,
            first=earlier.event,
            second=later.event,
            reason=reason,
        ))

