"""Shared-object structures (paper figure 2).

Every process keeps one :class:`SharedObject` instance per shared object in
the application, holding the figure-2 fields::

    objId; version; probOwner; status; copySet; epDep;

plus the local copy of the data and the local CREW holding state the owner
uses to decide whether a request can be granted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import ProtocolError
from repro.threads.thread import snapshot as _pristine
from repro.types import (
    AcquireType,
    ExecutionPoint,
    HoldState,
    ObjectId,
    ObjectStatus,
    ProcessId,
    Tid,
)


@dataclass(frozen=True)
class SharedObjectSpec:
    """Application-level declaration of a shared object.

    ``home`` is the process that creates the object and is its initial
    owner (producer of version V0, paper section 3.1).
    """

    obj_id: ObjectId
    initial: Any = None
    home: ProcessId = 0

    def initial_copy(self) -> Any:
        return _pristine(self.initial)


class SharedObject:
    """Per-process view of one shared object (figure 2 plus local state)."""

    __slots__ = (
        "obj_id", "version", "prob_owner", "status", "copy_set", "ep_dep",
        "data", "local_readers", "local_writer", "pending_invalidate_from",
        "_snap", "_snap_data",
    )

    def __init__(self, spec: SharedObjectSpec, local_pid: ProcessId) -> None:
        self.obj_id = spec.obj_id
        self.version = 0
        self.prob_owner: ProcessId = spec.home
        self.status = ObjectStatus.OWNED if local_pid == spec.home else ObjectStatus.NO_ACCESS
        #: Processes holding a readable copy (meaningful at the owner only).
        self.copy_set: set[ProcessId] = set()
        #: Execution point of the last local acquire/release event (figure 2
        #: ``epDep``); orders local acquires for replay.
        self.ep_dep: Optional[ExecutionPoint] = None
        self.data: Any = spec.initial_copy() if local_pid == spec.home else None
        # -- local CREW holding state ------------------------------------
        self.local_readers: set[Tid] = set()
        self.local_writer: Optional[Tid] = None
        #: Invalidation received while local readers hold the object; the
        #: ack is deferred until the last reader releases.  Stores
        #: (new_owner, ack_to, invalidated_version).
        self.pending_invalidate_from: Optional[tuple] = None
        #: The dict :meth:`snapshot` last returned and the data it copied.
        self._snap: Optional[dict[str, Any]] = None
        self._snap_data: Any = None

    @property
    def guard_id(self) -> ObjectId:
        """Identifier of the synchronization object guarding this object.

        Entry consistency associates every shared object with a guarding
        sync object; in DiSOM's presentation objects are *self-guarded*
        (the object doubles as its own sync object, paper section 3.1),
        so the guard is the object itself.  Trace emission and the race
        detector go through this property rather than assuming identity,
        so a future explicit sync-object binding only changes this spot.
        """
        return self.obj_id

    # ------------------------------------------------------------------
    # CREW holding state
    # ------------------------------------------------------------------
    @property
    def hold_state(self) -> HoldState:
        if self.local_writer is not None:
            return HoldState.HELD_WRITE
        if self.local_readers:
            return HoldState.HELD_READ
        return HoldState.FREE

    def can_grant_locally(self, acquire_type: AcquireType) -> bool:
        """CREW admission at the owner: read excludes writer; write excludes all."""
        if acquire_type.is_write:
            return self.hold_state is HoldState.FREE
        return self.local_writer is None

    def note_held(self, tid: Tid, acquire_type: AcquireType) -> None:
        if acquire_type.is_write:
            if self.hold_state is not HoldState.FREE:
                raise ProtocolError(
                    f"{self.obj_id}: write hold granted while {self.hold_state}"
                )
            self.local_writer = tid
        else:
            if self.local_writer is not None:
                raise ProtocolError(
                    f"{self.obj_id}: read hold granted while held for write"
                )
            self.local_readers.add(tid)

    def note_released(self, tid: Tid) -> None:
        if self.local_writer == tid:
            self.local_writer = None
        else:
            self.local_readers.discard(tid)

    # ------------------------------------------------------------------
    # access validity
    # ------------------------------------------------------------------
    @property
    def has_valid_copy(self) -> bool:
        """True when a local acquire can be satisfied without messages.

        The paper: a local acquire "can occur when the process has an
        up-to-date version of the object, i.e. the process is the owner or
        has a read-only copy".  A copy being invalidated no longer counts.
        """
        if self.pending_invalidate_from is not None:
            return False
        return self.status in (ObjectStatus.OWNED, ObjectStatus.READ)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """This object's image section, copy-on-write: images are never
        mutated, so the last dict is returned again while the object is
        unchanged -- the same ``data`` (only ever replaced, never mutated
        in place) and equal fields, ``ep_dep`` / ``local_writer`` by
        identity too since pickle, which sizes images, memoises by it."""
        snap = self._snap
        if (snap is not None and self.data is self._snap_data
                and snap["version"] == self.version
                and snap["status"] is self.status
                and snap["prob_owner"] == self.prob_owner
                and snap["ep_dep"] is self.ep_dep
                and snap["local_writer"] is self.local_writer
                and snap["copy_set"] == self.copy_set
                and snap["local_readers"] == self.local_readers):
            return snap
        self._snap_data = self.data
        snap = self._snap = {
            "obj_id": self.obj_id,
            "version": self.version,
            "prob_owner": self.prob_owner,
            "status": self.status,
            "copy_set": set(self.copy_set),
            "ep_dep": self.ep_dep,
            "data": _pristine(self.data),
            "local_readers": set(self.local_readers),
            "local_writer": self.local_writer,
        }
        return snap

    def restore(self, snap: dict[str, Any]) -> None:
        self.version = snap["version"]
        self.prob_owner = snap["prob_owner"]
        self.status = snap["status"]
        self.copy_set = set(snap["copy_set"])
        self.ep_dep = snap["ep_dep"]
        self.data = _pristine(snap["data"])
        self.local_readers = set(snap["local_readers"])
        self.local_writer = snap["local_writer"]
        self.pending_invalidate_from = None
        self._snap = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SharedObject({self.obj_id} v{self.version} {self.status.value} "
                f"own->{self.prob_owner} {self.hold_state.value})")


class ObjectDirectory:
    """The per-process table of shared objects."""

    def __init__(self, local_pid: ProcessId) -> None:
        self.local_pid = local_pid
        self._objects: dict[ObjectId, SharedObject] = {}
        self._specs: dict[ObjectId, SharedObjectSpec] = {}

    def declare(self, spec: SharedObjectSpec) -> SharedObject:
        if spec.obj_id in self._objects:
            raise ProtocolError(f"object {spec.obj_id!r} declared twice")
        obj = SharedObject(spec, self.local_pid)
        self._objects[spec.obj_id] = obj
        self._specs[spec.obj_id] = spec
        return obj

    def get(self, obj_id: ObjectId) -> SharedObject:
        obj = self._objects.get(obj_id)
        if obj is None:
            raise ProtocolError(f"unknown shared object {obj_id!r}")
        return obj

    def spec(self, obj_id: ObjectId) -> SharedObjectSpec:
        return self._specs[obj_id]

    def __iter__(self) -> Iterator[SharedObject]:
        return iter(self._objects.values())

    def __contains__(self, obj_id: ObjectId) -> bool:
        return obj_id in self._objects

    def ids(self) -> list[ObjectId]:
        return sorted(self._objects)

    def snapshot(self) -> dict[ObjectId, dict[str, Any]]:
        return {oid: self._objects[oid].snapshot() for oid in sorted(self._objects)}

    def restore(self, snaps: dict[ObjectId, dict[str, Any]]) -> None:
        for oid, snap in snaps.items():
            self.get(oid).restore(snap)
