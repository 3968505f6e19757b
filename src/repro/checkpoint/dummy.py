"""Dummy log entries (paper figure 5) and their per-process store.

A dummy entry describes a *local* acquire -- one satisfied from the local
copy without any message exchange.  Because both the acquiring thread and
the observed object state live in the same process, the record of the
acquire would die with that process; the entry is therefore shipped,
piggybacked on the next coherence-protocol message the process sends, to
whatever process that message goes to (section 4.2, local-acquire step 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.checkpoint.gc import covered
from repro.net.sizing import (
    ENUM_BYTES,
    EP_BYTES,
    NUMBER_BYTES,
    STATE_BYTES,
    StoredSize,
    str_bytes,
)
from repro.types import AcquireType, ExecutionPoint, ObjectId, ProcessId


@dataclass(frozen=True, slots=True)
class DummyEntry(StoredSize):
    """Figure 5: ``objId, epAcq, localDep, Plog``.

    ``local_dep`` is the execution point of the local event (previous local
    acquire or release on the same object -- the object's ``epDep``) that
    must be reproduced before this acquire can replay.  ``p_log`` is filled
    by the receiving process when the entry is shipped.

    ``type`` is implementation metadata (not in the paper's figure): the
    acquire mode, kept only so replay can assert the re-executed program
    issues the same kind of acquire.

    Its size-model bytes (``wire_bytes``) are computed at construction,
    and again by :meth:`stored_at`, which fills ``p_log``.
    """

    obj_id: ObjectId
    ep_acq: ExecutionPoint
    local_dep: Optional[ExecutionPoint]
    p_log: Optional[ProcessId] = None
    type: AcquireType = AcquireType.READ

    def __post_init__(self) -> None:
        size = _DUMMY_BYTES + str_bytes(self.obj_id)
        if self.local_dep is not None:
            size += EP_BYTES
        if self.p_log is not None:
            size += NUMBER_BYTES
        object.__setattr__(self, "wire_bytes", size)

    # Fast pickle path; see repro.types.Tid.__getstate__ for the contract.
    def __getstate__(self) -> list:
        return [self.obj_id, self.ep_acq, self.local_dep, self.p_log, self.type]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(
            ("obj_id", "ep_acq", "local_dep", "p_log", "type"), state
        ):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def stored_at(self, pid: ProcessId) -> "DummyEntry":
        """Copy with ``Plog`` set; made by the receiver when it stores the entry."""
        return replace(self, p_log=pid)

    @property
    def lt(self) -> int:
        return self.ep_acq.lt

    @property
    def creator_pid(self) -> ProcessId:
        """Process whose thread performed the local acquire."""
        return self.ep_acq.tid.pid

    def __str__(self) -> str:
        dep = str(self.local_dep) if self.local_dep is not None else "-"
        return f"dummy({self.obj_id} acq={self.ep_acq} dep={dep} Plog={self.p_log})"


#: A dummy entry's bytes but for its object id and optional fields: the
#: acquire's execution point and the type tag.
_DUMMY_BYTES = STATE_BYTES + EP_BYTES + ENUM_BYTES


class DummyLog:
    """Per-process store of dummy entries *received from other processes*.

    Entries created locally and not yet shipped are held separately by the
    checkpoint protocol (they are deleted, not stored, once shipped).
    """

    def __init__(self, local_pid: ProcessId) -> None:
        self.local_pid = local_pid
        self._entries: list[DummyEntry] = []
        #: ``(obj_id, ep_acq)`` of every entry in ``_entries``.
        self._keys: set[tuple[ObjectId, ExecutionPoint]] = set()
        self.stored_total = 0

    def store(self, entry: DummyEntry) -> DummyEntry:
        """Store a shipped entry, stamping our pid into ``Plog``.

        Idempotent on ``(obj_id, ep_acq)``.  An entry piggybacked to a
        process that is already recovering reaches it twice: once when
        the deferred piggyback drains, once when replay re-creates the
        failed process's dummies from the merged DummySet.  A second
        copy would later read as two LogList elements at one logical
        time when this process itself fails.
        """
        stamped = entry.stored_at(self.local_pid)
        key = (entry.obj_id, entry.ep_acq)
        if key not in self._keys:
            self._keys.add(key)
            self._entries.append(stamped)
            self.stored_total += 1
        return stamped

    def __iter__(self) -> Iterator[DummyEntry]:
        return iter(list(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def remove_before(self, pid: ProcessId, ckpt_lts: dict) -> list[DummyEntry]:
        """GC (section 4.4): drop and return, in store order, the entries
        whose ``epAcq`` precedes the checkpoint of ``pid`` -- ``ckpt_lts``
        maps its tids to their logical times at that checkpoint."""
        dropped = [e for e in self._entries if covered(e.ep_acq, pid, ckpt_lts)]
        if dropped:
            self._entries = [e for e in self._entries
                             if not covered(e.ep_acq, pid, ckpt_lts)]
            self._keys.difference_update((e.obj_id, e.ep_acq) for e in dropped)
        return dropped

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def snapshot(self) -> list[DummyEntry]:
        return list(self._entries)

    def restore(self, entries: list[DummyEntry]) -> None:
        self._entries = list(entries)
        self._keys = {(entry.obj_id, entry.ep_acq) for entry in entries}
