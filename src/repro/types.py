"""Fundamental identifier and execution-point types (paper section 3).

The paper builds everything on three notions:

* a *process identifier* -- one DiSOM process per workstation;
* a *thread identifier* ``tid`` composed of the process identifier and a
  local thread identifier, so the process can always be recovered from the
  tid;
* an *execution point* ``ep = <tid, lt>`` pairing a thread with its logical
  time, identifying a unique point in the system's execution.  Logical time
  is incremented on every acquire.

The paper's orderings ``prec`` and ``preceq`` relate execution points of
the *same* thread only; the protocol code that needs them compares the
``lt`` of points it already knows share a tid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.net.sizing import (
    BOOL_BYTES,
    ENUM_BYTES,
    EP_BYTES,
    NUMBER_BYTES,
    STATE_BYTES,
    TID_BYTES,
    StoredSize,
    state_bytes,
    str_bytes,
)

#: Identifier of a DiSOM process (one per simulated workstation).
ProcessId = int

#: System-wide unique identifier of a shared data object.
ObjectId = str


class AcquireType(enum.Enum):
    """Type of an acquire operation: read (shared) or write (exclusive).

    Entry consistency's synchronization objects enforce concurrent-read
    exclusive-write (CREW): many simultaneous readers or one writer.
    """

    READ = "R"
    WRITE = "W"

    @property
    def is_write(self) -> bool:
        return self is AcquireType.WRITE

    @property
    def is_read(self) -> bool:
        return self is AcquireType.READ

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=True)
class Tid:
    """Unique thread identifier: (process identifier, local thread index).

    The paper: "The tid is composed of the process identifier and a local
    thread identifier.  Therefore, the process identifier can be obtained
    from the tid."

    Tids (like execution points) are used as dict/set keys throughout the
    protocol layers, so the hash is computed once at construction and
    cached in a hidden ``_hash`` slot.  The cached value is exactly the
    dataclass-generated ``hash((pid, local))`` so container iteration
    orders are unchanged.  ``Tid.of`` interns
    instances: hot paths that construct the same identifier repeatedly
    get the same object back, which turns dict-key equality checks into
    identity hits (and changes pickled sizes; see ``_INTERN_MAX``).
    """

    __slots__ = ("pid", "local", "_hash")

    pid: ProcessId
    local: int

    #: Size-model bytes: the shape is fixed.
    wire_bytes = TID_BYTES

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.pid, self.local)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(pid: ProcessId, local: int) -> "Tid":
        """Interned constructor; equal arguments return the same object."""
        key = (pid, local)
        tid = _TID_INTERN.get(key)
        if tid is None:
            if len(_TID_INTERN) >= _INTERN_MAX:
                _TID_INTERN.clear()
            tid = _TID_INTERN[key] = Tid(pid, local)
        return tid

    # Hand-written pickle support: byte-identical to the dataclass-generated
    # _dataclass_getstate/_dataclass_setstate pair (a list of field values
    # in declaration order) but without the per-call fields() reflection.
    # Any field change here MUST update these two methods in lockstep --
    # test_pickle_state_matches_dataclass guards that.
    def __getstate__(self) -> list:
        return [self.pid, self.local]

    def __setstate__(self, state: list) -> None:
        object.__setattr__(self, "pid", state[0])
        object.__setattr__(self, "local", state[1])
        object.__setattr__(self, "_hash", hash((state[0], state[1])))

    def __str__(self) -> str:
        return f"t{self.pid}.{self.local}"


_TID_INTERN: dict[tuple, Tid] = {}


@dataclass(frozen=True)
class ExecutionPoint:
    """A unique execution point ``<tid, lt>`` (paper section 3).

    ``lt`` is the thread's logical time, incremented on every acquire; the
    acquire itself happens *at* the incremented value.

    Hash caching and interning follow :class:`Tid`: threads re-derive
    their current execution point on every syscall, so
    ``ExecutionPoint.of`` keeps one object per ``<tid, lt>`` value.
    """

    __slots__ = ("tid", "lt", "_hash")

    tid: Tid
    lt: int

    #: Size-model bytes: the shape is fixed.
    wire_bytes = EP_BYTES

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.tid, self.lt)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(tid: Tid, lt: int) -> "ExecutionPoint":
        """Interned constructor; equal arguments return the same object."""
        key = (tid, lt)
        point = _EP_INTERN.get(key)
        if point is None:
            if len(_EP_INTERN) >= _INTERN_MAX:
                _EP_INTERN.clear()
            point = _EP_INTERN[key] = ExecutionPoint(tid, lt)
        return point

    # Fast pickle path; see Tid.__getstate__ for the contract.
    def __getstate__(self) -> list:
        return [self.tid, self.lt]

    def __setstate__(self, state: list) -> None:
        object.__setattr__(self, "tid", state[0])
        object.__setattr__(self, "lt", state[1])
        object.__setattr__(self, "_hash", hash((state[0], state[1])))

    def __str__(self) -> str:
        return f"<{self.tid}@{self.lt}>"


#: Bound on each intern cache (thread ids, execution points); cleared
#: wholesale when full.  Equality never depends on interning, but
#: serialized sizes do: pickle's memo writes a shared object once, so an
#: image holding one interned point in several places pickles smaller
#: than one holding equal copies.  Dropping interning changes what the
#: durable store writes (``bytes_written``), so it is not behaviour-neutral.
_INTERN_MAX = 1 << 17
_EP_INTERN: dict[tuple, ExecutionPoint] = {}


def ep(pid: ProcessId, local: int, lt: int) -> ExecutionPoint:
    """Convenience constructor used heavily by tests: ``ep(0, 1, 5)``."""
    return ExecutionPoint.of(Tid.of(pid, local), lt)


@dataclass(frozen=True, slots=True)
class WaitObj:
    """The ``waitObj`` field of the thread structure (paper figure 3).

    Non-null while the thread has an outstanding acquire request of ``type``
    for ``obj_id`` that has not completed.  Used during recovery to re-issue
    acquire requests that may have been lost with the failed process.
    """

    obj_id: ObjectId
    type: AcquireType
    ep_acq: ExecutionPoint

    #: Size-model bytes, walked: a waitObj is sized only in images.
    wire_bytes = property(state_bytes)

    # Fast pickle path; see Tid.__getstate__ for the contract.
    def __getstate__(self) -> list:
        return [self.obj_id, self.type, self.ep_acq]

    def __setstate__(self, state: list) -> None:
        object.__setattr__(self, "obj_id", state[0])
        object.__setattr__(self, "type", state[1])
        object.__setattr__(self, "ep_acq", state[2])

    def __str__(self) -> str:
        return f"wait({self.obj_id},{self.type},{self.ep_acq})"


@dataclass(frozen=True, slots=True)
class Dependency(StoredSize):
    """One ``depSet`` entry: ``<objId, type, ep_acq, ep_prd, P>`` (fig. 3).

    Reading: a version of ``obj_id`` was acquired for ``type`` when the
    acquiring thread's execution point was ``ep_acq``; the producer thread's
    execution point was ``ep_prd``; the log entry lives in process ``p_log``.

    For *local* acquires, ``ep_prd`` holds the object's ``epDep`` at acquire
    time (the local event this acquire depends on) and ``p_log`` the process
    where the dummy entry was eventually stored.

    Its size-model bytes (``wire_bytes``) are computed at construction:
    dependencies are the most common value in a checkpoint's thread
    section, and every image would otherwise walk them again.
    """

    obj_id: ObjectId
    type: AcquireType
    ep_acq: ExecutionPoint
    ep_prd: ExecutionPoint
    p_log: ProcessId
    #: True when this dependency describes a local acquire (dummy-logged).
    local: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "wire_bytes",
                           _DEPENDENCY_BYTES + str_bytes(self.obj_id))

    # Fast pickle path; see Tid.__getstate__ for the contract.
    def __getstate__(self) -> list:
        return [self.obj_id, self.type, self.ep_acq, self.ep_prd,
                self.p_log, self.local]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(
            ("obj_id", "type", "ep_acq", "ep_prd", "p_log", "local"), state
        ):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def with_p_log(self, p_log: ProcessId) -> "Dependency":
        """Return a copy with the ``P`` field replaced.

        Used when a dummy log entry is shipped to another process: the local
        dependency's ``P`` field is updated to the identifier of the process
        that now stores the entry (paper section 4.2, local acquire step 3).
        """
        return Dependency(self.obj_id, self.type, self.ep_acq, self.ep_prd,
                          p_log, self.local)

    def __str__(self) -> str:
        kind = "local" if self.local else "remote"
        return (f"dep({self.obj_id},{self.type},acq={self.ep_acq},"
                f"prd={self.ep_prd},P={self.p_log},{kind})")


#: A Dependency's bytes but for its object id: the type tag, two
#: execution points, the ``P`` pid and the ``local`` flag.
_DEPENDENCY_BYTES = (STATE_BYTES + ENUM_BYTES + 2 * EP_BYTES + NUMBER_BYTES
                     + BOOL_BYTES)


class ObjectStatus(enum.Enum):
    """The ``status`` field of the object structure (paper figure 2).

    Describes how the local copy of the object is being used and which
    accesses it permits.
    """

    #: No valid local copy; any access must go through the coherence protocol.
    NO_ACCESS = "no-access"
    #: Valid read-only copy (process is in the owner's copySet).
    READ = "read"
    #: Process owns the object; local copy is the last version.
    OWNED = "owned"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class HoldState(enum.Enum):
    """How the object is currently *held* by local threads (CREW state)."""

    FREE = "free"
    HELD_READ = "held-read"
    HELD_WRITE = "held-write"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
