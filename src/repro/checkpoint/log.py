"""Regular log entries and the per-process volatile log (paper figure 4).

A log entry is created when a ``release-write`` is issued (and, in this
implementation, when an object is created -- its version V0 behaves exactly
like a produced version, with a pseudo-producer thread).  The entry lives
in the *producer's* volatile memory; the independent-failure assumption of
workstation clusters makes that sufficient for single-failure recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import ProtocolError
from repro.observers import Observers
from repro.threads.thread import snapshot as _pristine
from repro.net.sizing import payload_size
from repro.types import ExecutionPoint, ObjectId, ProcessId, Tid


def pseudo_tid(pid: ProcessId) -> Tid:
    """The pseudo-thread standing for "object creation" at a home process.

    Version V0 exists from creation (section 3.1); its producer is not a
    real thread, so grants of V0 use this sentinel with logical time 0.
    """
    return Tid.of(pid, -1)


def pseudo_ep(pid: ProcessId) -> ExecutionPoint:
    return ExecutionPoint.of(pseudo_tid(pid), 0)


def is_pseudo(tid: Tid) -> bool:
    """Is ``tid`` a pseudo producer (object creation or an ownership entry)?"""
    return tid.local == -1


@dataclass(frozen=True, slots=True)
class ThreadSetPair:
    """One ``threadSet`` element: ``<ep_acq, ep_prd>``.

    ``ep_acq`` is the execution point of the acquire; ``ep_prd`` the
    producer thread's execution point when the acquire request was
    satisfied (paper section 4.1).
    """

    ep_acq: ExecutionPoint
    ep_prd: ExecutionPoint

    # Fast pickle path; see repro.types.Tid.__getstate__ for the contract.
    def __getstate__(self) -> list:
        return [self.ep_acq, self.ep_prd]

    def __setstate__(self, state: list) -> None:
        object.__setattr__(self, "ep_acq", state[0])
        object.__setattr__(self, "ep_prd", state[1])

    def __str__(self) -> str:
        return f"<acq={self.ep_acq},prd={self.ep_prd}>"


@dataclass
class LogEntry:
    """Figure 4: ``objId, version, objData, tidPrd, nextOwner, threadSet``.

    ``ep_release`` (implementation metadata, not in the paper's figure) is
    the producer thread's execution point at the release that created this
    version; recovery uses it to attach surviving processes' dependency
    entries to the correct version (see DESIGN.md section 4.3.2 note).
    """

    obj_id: ObjectId
    version: int
    obj_data: Any
    tid_prd: Tid
    next_owner: Optional[ProcessId] = None
    thread_set: list[ThreadSetPair] = field(default_factory=list)
    ep_release: Optional[ExecutionPoint] = None
    #: Execution point of the write acquire that set ``next_owner``
    #: (implementation metadata): lets ownership be reclaimed when a
    #: multi-failure rollback discards that acquire.
    next_owner_ep: Optional[ExecutionPoint] = None
    #: The granter's copySet at the moment ownership moved (implementation
    #: metadata).  The threadSet alone under-approximates it once GC has
    #: removed pairs for readers whose own checkpoints cover their
    #: acquires; a recovering writer needs the full set to (re-)invalidate.
    copy_set_at_grant: Optional[frozenset] = None
    #: Size this entry was accounted at when appended (perf bookkeeping).
    _accounted_bytes: int = field(default=0, repr=False, compare=False)
    #: Cached ``payload_size(obj_data)``; the data is an immutable
    #: snapshot, so its wire size never changes after construction.
    _data_bytes: Optional[int] = field(default=None, repr=False, compare=False)

    def add_access(self, ep_acq: ExecutionPoint, ep_prd: ExecutionPoint) -> None:
        self.thread_set.append(ThreadSetPair(ep_acq, ep_prd))

    def copy_holders(self, pid: ProcessId) -> set[ProcessId]:
        """Processes other than ``pid`` that may hold a read copy of this
        version: its threadSet acquirers plus, since the threadSet
        under-approximates once GC removed pairs of checkpointed readers,
        the granter's copySet recorded when ownership moved."""
        holders = {pair.ep_acq.tid.pid for pair in self.thread_set} - {pid}
        if self.copy_set_at_grant is not None:
            holders |= set(self.copy_set_at_grant) - {pid}
        return holders

    def data_copy(self) -> Any:
        return _pristine(self.obj_data)

    def size_bytes(self) -> int:
        """Approximate memory footprint: data plus bookkeeping.

        The data part is cached: ``obj_data`` is a snapshot taken at
        release time and never mutated afterwards, while sizing it means
        pickling -- the dominant cost of log accounting.
        """
        data_bytes = self._data_bytes
        if data_bytes is None:
            data_bytes = self._data_bytes = payload_size(self.obj_data)
        return data_bytes + 40 + 32 * len(self.thread_set)

    def clone(self) -> "LogEntry":
        # obj_data is never mutated (see size_bytes): the clone shares it.
        return LogEntry(
            obj_id=self.obj_id,
            version=self.version,
            obj_data=self.obj_data,
            tid_prd=self.tid_prd,
            next_owner=self.next_owner,
            thread_set=list(self.thread_set),
            ep_release=self.ep_release,
            next_owner_ep=self.next_owner_ep,
            copy_set_at_grant=self.copy_set_at_grant,
            _data_bytes=self._data_bytes,
        )

    def __str__(self) -> str:
        nxt = f"->{self.next_owner}" if self.next_owner is not None else ""
        return (f"log({self.obj_id}:v{self.version} by {self.tid_prd}{nxt} "
                f"ts={len(self.thread_set)})")


class ProcessLog:
    """The volatile log of one process: regular entries, ordered by creation.

    Entries are indexed per object so the owner can reach "the object's
    last version in the log" in O(1) (paper section 4.2 step 2).
    """

    def __init__(self, observers: Optional[Observers] = None,
                 pid: ProcessId = -1) -> None:
        #: The run's observer registry (see :mod:`repro.observers`);
        #: append and remove notifications are dispatched there stamped
        #: with ``pid``, the owning process.  A stand-alone log gets an
        #: empty registry of its own.
        self._observers = observers if observers is not None else Observers()
        self._pid = pid
        self._entries: list[LogEntry] = []
        self._by_object: dict[ObjectId, list[LogEntry]] = {}
        #: Total entries ever appended (GC does not decrease this).
        self.appended = 0
        #: Total bytes ever logged (GC does not decrease this).
        self.appended_bytes = 0
        #: Bytes currently held (append minus GC), accounted at each
        #: entry's size when it entered/left the log -- threadSet pairs
        #: added later are not re-counted, so this slightly under-reads
        #: a long-lived entry.  ``peak_bytes`` is its high-water mark,
        #: the benchmark's ``checkpoint.peak_log_bytes``.
        self.live_bytes = 0
        self.peak_bytes = 0

    def append(self, entry: LogEntry) -> None:
        per_obj = self._by_object.setdefault(entry.obj_id, [])
        if per_obj and per_obj[-1].version >= entry.version:
            raise ProtocolError(
                f"log versions must increase: {per_obj[-1]} then {entry}"
            )
        self._entries.append(entry)
        per_obj.append(entry)
        size = entry.size_bytes()
        entry._accounted_bytes = size
        self.appended += 1
        self.appended_bytes += size
        self.live_bytes += size
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes
        if self._observers.active:
            self._observers.on_log_append(self._pid, entry)

    def last_entry(self, obj_id: ObjectId) -> Optional[LogEntry]:
        per_obj = self._by_object.get(obj_id)
        return per_obj[-1] if per_obj else None

    def owner_entry(self, obj: Any) -> LogEntry:
        """The last entry for ``obj``, which this process owns.

        The owner must hold the last version's entry to serve grants ("the
        object's last version in the log", section 4.2 step 2).  When the
        object is newer than the log -- ownership installed by a remote
        write grant, by recovery replay, or restored from a checkpoint
        taken while the ownership reply was mid-flight -- a bare ownership
        entry is appended first.  The producer keeps the original entry
        with its threadSet; this copy's pseudo producer point is
        ``(pid,-1)@version`` so dependency attachment during a later
        recovery resolves to it.
        """
        last = self.last_entry(obj.obj_id)
        if last is None or last.version < obj.version:
            last = LogEntry(
                obj_id=obj.obj_id,
                version=obj.version,
                obj_data=_pristine(obj.data),
                tid_prd=pseudo_tid(self._pid),
                ep_release=ExecutionPoint.of(pseudo_tid(self._pid), obj.version),
            )
            self.append(last)
        return last

    def entries_for(self, obj_id: ObjectId) -> list[LogEntry]:
        return list(self._by_object.get(obj_id, []))

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(list(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def size_bytes(self) -> int:
        return sum(entry.size_bytes() for entry in self._entries)

    # ------------------------------------------------------------------
    # garbage collection primitives (paper section 4.4)
    # ------------------------------------------------------------------
    def is_old(self, entry: LogEntry) -> bool:
        """Old = not the last version of its object *in this log*."""
        per_obj = self._by_object.get(entry.obj_id)
        return bool(per_obj) and per_obj[-1] is not entry

    def remove(self, entry: LogEntry) -> None:
        self._entries.remove(entry)
        per_obj = self._by_object.get(entry.obj_id, [])
        if entry in per_obj:
            per_obj.remove(entry)
        self.live_bytes -= entry._accounted_bytes
        if self._observers.active:
            self._observers.on_log_remove(self._pid, entry)

    def drop_old_unreferenced(self) -> int:
        """Delete old entries with an empty threadSet; returns count."""
        victims = [e for e in self._entries if not e.thread_set and self.is_old(e)]
        for entry in victims:
            self.remove(entry)
        return len(victims)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def snapshot(self) -> list[LogEntry]:
        return [entry.clone() for entry in self._entries]

    def restore(self, entries: list[LogEntry]) -> None:
        self._entries = []
        self._by_object = {}
        self.live_bytes = 0
        for entry in entries:
            self.append(entry.clone())
        # restore() replays appends; undo the double counting.
        self.appended -= len(entries)
        self.appended_bytes -= sum(e.size_bytes() for e in entries)
