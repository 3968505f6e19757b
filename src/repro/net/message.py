"""Message structure.

Messages are described in the paper (section 4.2, footnote 2) as tuples
``([alpha], [beta])`` where ``alpha`` is the memory-coherence information and
``beta`` the checkpoint-protocol information piggybacked on it.  We model
that split explicitly: :attr:`Message.payload` is the coherence part and
:attr:`Message.piggyback` the checkpoint part, so the byte accounting can
separate them.  Both are typed records with a closed-form ``size()``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.net.sizing import (
    BOOL_BYTES,
    EMPTY_DICT_BYTES,
    EMPTY_LIST_BYTES,
    ENUM_BYTES,
    EP_BYTES,
    ITEM_BYTES,
    NUMBER_BYTES,
    TID_BYTES,
    _sized,
    dict_bytes,
    str_bytes,
)
from repro.types import AcquireType, ExecutionPoint, ObjectId, ProcessId, Tid


class MessageKind(enum.Enum):
    """All message kinds used by the protocols in this repository."""

    # Enum's default __hash__ is a Python-level function over the member
    # name; kinds key the per-send stats counters, so use the C-speed
    # identity hash (members are singletons -- identity is equality).
    __hash__ = object.__hash__

    # -- entry-consistency coherence protocol (paper section 4.2) --------
    ACQUIRE_REQUEST = "acquire-request"
    ACQUIRE_REPLY = "acquire-reply"
    INVALIDATE = "invalidate"
    INVALIDATE_ACK = "invalidate-ack"

    # -- checkpoint protocol (failure-free: piggyback-only; these kinds
    #    exist for the eager-shipping ablation A1) ------------------------
    DUMMY_SHIP = "dummy-ship"
    CKPT_GC = "ckpt-gc"

    # -- recovery (paper section 4.3) -------------------------------------
    RECOVERY_REQUEST = "recovery-request"
    RECOVERY_REPLY = "recovery-reply"
    RECOVERY_DONE = "recovery-done"
    ABORT = "abort"

    # -- coordinated checkpointing baseline (Koo-Toueg style) -------------
    COORD_CKPT_REQUEST = "coord-ckpt-request"
    COORD_CKPT_READY = "coord-ckpt-ready"
    COORD_CKPT_COMMIT = "coord-ckpt-commit"
    COORD_CKPT_ACK = "coord-ckpt-ack"

    # -- sequential-consistency backend (SC-ABD style home lock +
    #    write-through replication; see memory/sequential.py) -------------
    SC_ACQUIRE = "sc-acquire"
    SC_GRANT = "sc-grant"
    SC_RELEASE = "sc-release"
    SC_RELEASE_DONE = "sc-release-done"
    SC_UPDATE = "sc-update"
    SC_UPDATE_ACK = "sc-update-ack"

    # -- generic application / test traffic; delivered to raw network
    #    sinks (tests), never through Process.deliver ------
    APP = "app"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Message layers used for accounting.  ``checkpoint`` layer messages are
#: exactly the "extra messages" the paper's design avoids in the
#: failure-free period.
LAYER_COHERENCE = "coherence"
LAYER_CHECKPOINT = "checkpoint"
LAYER_RECOVERY = "recovery"
LAYER_APP = "app"

_KIND_LAYER = {
    MessageKind.ACQUIRE_REQUEST: LAYER_COHERENCE,
    MessageKind.ACQUIRE_REPLY: LAYER_COHERENCE,
    MessageKind.INVALIDATE: LAYER_COHERENCE,
    MessageKind.INVALIDATE_ACK: LAYER_COHERENCE,
    MessageKind.DUMMY_SHIP: LAYER_CHECKPOINT,
    MessageKind.CKPT_GC: LAYER_CHECKPOINT,
    MessageKind.RECOVERY_REQUEST: LAYER_RECOVERY,
    MessageKind.RECOVERY_REPLY: LAYER_RECOVERY,
    MessageKind.RECOVERY_DONE: LAYER_RECOVERY,
    MessageKind.ABORT: LAYER_RECOVERY,
    MessageKind.COORD_CKPT_REQUEST: LAYER_CHECKPOINT,
    MessageKind.COORD_CKPT_READY: LAYER_CHECKPOINT,
    MessageKind.COORD_CKPT_COMMIT: LAYER_CHECKPOINT,
    MessageKind.COORD_CKPT_ACK: LAYER_CHECKPOINT,
    MessageKind.SC_ACQUIRE: LAYER_COHERENCE,
    MessageKind.SC_GRANT: LAYER_COHERENCE,
    MessageKind.SC_RELEASE: LAYER_COHERENCE,
    MessageKind.SC_RELEASE_DONE: LAYER_COHERENCE,
    MessageKind.SC_UPDATE: LAYER_COHERENCE,
    MessageKind.SC_UPDATE_ACK: LAYER_COHERENCE,
    MessageKind.APP: LAYER_APP,
}


def layer_of(kind: MessageKind) -> str:
    """Accounting layer of a message kind."""
    return _KIND_LAYER[kind]


# ----------------------------------------------------------------------
# Typed payloads, one record per message shape.  Each ``size()`` is the
# size model's bytes for the record's dict spelling -- the field names as
# string keys, in a dict -- written out in closed form; a property test
# holds every one equal to the walk of that dict.  Fields are named as the
# receivers read them; an optional field adds its key only when present.
# Slotted, not frozen (a frozen slotted record costs about five times as
# much to build; DESIGN.md section 2.8): a record is never edited after
# it is sent, by convention, as for :class:`Message`.
# ----------------------------------------------------------------------


@dataclass(slots=True)
class AcquireRequest:
    """ACQUIRE_REQUEST and SC_ACQUIRE: the coherence part of an acquire
    request, ``[objId, type, P_acq]`` plus the forwarding hop count
    (paper 4.2 step 1; ``ep_acq`` rides in :class:`RequestControl`)."""

    obj_id: ObjectId
    type: AcquireType
    p_acq: ProcessId
    hops: int

    def size(self) -> int:
        return _ACQUIRE_REQUEST_BYTES + str_bytes(self.obj_id)


@dataclass(slots=True)
class AcquireReply:
    """ACQUIRE_REPLY and SC_GRANT: the granted version's data and its
    producer process (paper 4.2 step 2).  A write grant under entry
    consistency also moves the owner's copySet (step 2(b)): ``copy_set``
    is a list of pids then, and ``None`` on every other grant."""

    obj_id: ObjectId
    type: AcquireType
    obj_data: Any
    p_prd: ProcessId
    copy_set: Optional[list[ProcessId]] = None

    def size(self) -> int:
        size = (_ACQUIRE_REPLY_BYTES + str_bytes(self.obj_id)
                + _sized(self.obj_data))
        if self.copy_set is not None:
            size += _COPY_SET_BYTES + _PID_ITEM_BYTES * len(self.copy_set)
        return size


@dataclass(slots=True)
class Invalidate:
    """INVALIDATE: ``version`` of ``obj_id`` is superseded; ``new_owner``
    holds the next one."""

    obj_id: ObjectId
    new_owner: ProcessId
    version: int

    def size(self) -> int:
        return _INVALIDATE_BYTES + str_bytes(self.obj_id)


@dataclass(slots=True)
class Ack:
    """INVALIDATE_ACK and SC_UPDATE_ACK: ``sender`` dropped (or updated)
    its copy of ``version`` (the dict spelling's key is ``from``)."""

    obj_id: ObjectId
    sender: ProcessId
    version: int

    def size(self) -> int:
        return _ACK_BYTES + str_bytes(self.obj_id)


@dataclass(slots=True)
class ScRelease:
    """SC_RELEASE: a release at a non-home process.  A write release also
    carries the writer thread, the new version and its data."""

    obj_id: ObjectId
    write: bool
    p_rel: ProcessId
    tid: Optional[Tid] = None
    version: int = 0
    obj_data: Any = None

    def size(self) -> int:
        size = _SC_RELEASE_BYTES + str_bytes(self.obj_id)
        if self.write:
            size += _SC_RELEASE_WRITE_BYTES + _sized(self.obj_data)
        return size


@dataclass(slots=True)
class ScReleaseDone:
    """SC_RELEASE_DONE: the write-through round of ``tid``'s release of
    ``obj_id`` completed."""

    obj_id: ObjectId
    tid: Tid

    def size(self) -> int:
        return _SC_RELEASE_DONE_BYTES + str_bytes(self.obj_id)


@dataclass(slots=True)
class ScUpdate:
    """SC_UPDATE: the home propagates a new version to a replica."""

    obj_id: ObjectId
    version: int
    obj_data: Any

    def size(self) -> int:
        return (_SC_UPDATE_BYTES + str_bytes(self.obj_id)
                + _sized(self.obj_data))


class NoPayload:
    """DUMMY_SHIP and CKPT_GC (and the default): the message exists for its
    piggyback; the payload is an empty dict."""

    __slots__ = ()

    def size(self) -> int:
        return EMPTY_DICT_BYTES


NO_PAYLOAD = NoPayload()


@dataclass(slots=True)
class RecoveryRequest:
    """RECOVERY_REQUEST: the failed process's CkpSet scopes the data
    collection (paper 4.3.1)."""

    ckp_set: Any  # repro.checkpoint.policy.CkpSet
    failed_pid: ProcessId

    def size(self) -> int:
        return _RECOVERY_REQUEST_BYTES + self.ckp_set.wire_bytes


@dataclass(slots=True)
class RecoveryReply:
    """RECOVERY_REPLY: one survivor's collected recovery data."""

    data: Any  # repro.checkpoint.recovery.RecoveryReplyData

    def size(self) -> int:
        return _RECOVERY_REPLY_BYTES


@dataclass(slots=True)
class RecoveryDone:
    """RECOVERY_DONE: where each of the recovered process's threads
    resumed (its logical time per tid)."""

    resume_lts: dict[Tid, int]

    def size(self) -> int:
        return _RECOVERY_DONE_BYTES + _LT_ITEM_BYTES * len(self.resume_lts)


@dataclass(slots=True)
class Abort:
    """ABORT: the run is abandoned (paper 4.5), for ``reason``."""

    reason: str

    def size(self) -> int:
        return _ABORT_BYTES + str_bytes(self.reason)


@dataclass(slots=True)
class CoordRound:
    """COORD_CKPT_REQUEST / READY / COMMIT / ACK: a message of the
    coordinated baseline's round for checkpoint ``epoch``."""

    epoch: int

    def size(self) -> int:
        return _COORD_ROUND_BYTES


@dataclass(slots=True)
class AppData:
    """APP: application or test traffic, an arbitrary dict, walked."""

    fields: dict[str, Any]

    def size(self) -> int:
        return _sized(self.fields)


@dataclass(slots=True)
class RequestControl:
    """The checkpoint part of an acquire request: ``[ep_acq]``."""

    ep_acq: ExecutionPoint

    def size(self) -> int:
        return _REQUEST_CONTROL_BYTES


@dataclass(slots=True)
class GrantControl:
    """The checkpoint part of a grant: ``[ep_prd, version]`` (paper 4.2
    step 2), plus the ``ep_acq`` the reply answers.  ``ep_prd`` is what
    the checkpoint hooks supply; a scheme without one sends ``None`` and
    the key is absent."""

    version: int
    ep_acq: ExecutionPoint
    ep_prd: Optional[ExecutionPoint] = None

    def size(self) -> int:
        if self.ep_prd is None:
            return _GRANT_CONTROL_BYTES
        return _GRANT_CONTROL_BYTES + _EP_PRD_BYTES


#: Bytes of each record's dict spelling that do not depend on its values.
_ACQUIRE_REQUEST_BYTES = (dict_bytes("obj_id", "type", "p_acq", "hops")
                          + ENUM_BYTES + 2 * NUMBER_BYTES)
_ACQUIRE_REPLY_BYTES = (dict_bytes("obj_id", "type", "obj_data", "p_prd")
                        + ENUM_BYTES + NUMBER_BYTES)
_COPY_SET_BYTES = 2 * ITEM_BYTES + len("copy_set") + EMPTY_LIST_BYTES
_PID_ITEM_BYTES = ITEM_BYTES + NUMBER_BYTES
_INVALIDATE_BYTES = (dict_bytes("obj_id", "new_owner", "version")
                     + 2 * NUMBER_BYTES)
_ACK_BYTES = dict_bytes("obj_id", "from", "version") + 2 * NUMBER_BYTES
_SC_RELEASE_BYTES = (dict_bytes("obj_id", "write", "p_rel")
                     + BOOL_BYTES + NUMBER_BYTES)
_SC_RELEASE_WRITE_BYTES = (dict_bytes("tid", "version", "obj_data")
                           - EMPTY_DICT_BYTES + TID_BYTES + NUMBER_BYTES)
_SC_RELEASE_DONE_BYTES = dict_bytes("obj_id", "tid") + TID_BYTES
_SC_UPDATE_BYTES = dict_bytes("obj_id", "version", "obj_data") + NUMBER_BYTES
_RECOVERY_REQUEST_BYTES = dict_bytes("ckp_set", "failed_pid") + NUMBER_BYTES
#: The reply's collected data is billed the size model's old flat charge
#: for a value outside the model, 64 bytes, whatever it holds: mostly an
#: under-count (a reply's LogSet, DependSet and DummySet walk to up to
#: ~1.2 KB).  Kept so every byte count stays as recorded; billing the
#: real size is a model change that re-records the pins (ROADMAP, model
#: fidelity (4)).
RECOVERY_REPLY_DATA_BYTES = 64
_RECOVERY_REPLY_BYTES = dict_bytes("data") + RECOVERY_REPLY_DATA_BYTES
_RECOVERY_DONE_BYTES = dict_bytes("resume_lts") + EMPTY_DICT_BYTES
_LT_ITEM_BYTES = 2 * ITEM_BYTES + TID_BYTES + NUMBER_BYTES
_ABORT_BYTES = dict_bytes("reason")
_COORD_ROUND_BYTES = dict_bytes("epoch") + NUMBER_BYTES
_REQUEST_CONTROL_BYTES = dict_bytes("ep_acq") + EP_BYTES
_GRANT_CONTROL_BYTES = dict_bytes("version", "ep_acq") + NUMBER_BYTES + EP_BYTES
_EP_PRD_BYTES = 2 * ITEM_BYTES + len("ep_prd") + EP_BYTES


@dataclass(slots=True)
class Piggyback:
    """Checkpoint-protocol information riding on a message.

    ``control`` carries the per-message checkpoint fields of the paper's
    ``([alpha],[beta])`` notation -- a :class:`RequestControl` on requests,
    a :class:`GrantControl` on replies, ``None`` (an empty dict on the
    wire) otherwise; ``dummies`` carries dummy log entries being shipped
    off-node (section 4.2, local acquire step 3); ``ckp_sets`` carries
    garbage-collection CkpSet announcements (section 4.4): at most one,
    the sender's newest, which supersedes any older one.  Dummies may
    accumulate between coherence messages to a given destination.

    Its size adds up sizes already known: the control record's closed
    form and each dummy's and CkpSet's stored ``wire_bytes``.
    """

    control: Optional[RequestControl | GrantControl] = None
    dummies: list[Any] = field(default_factory=list)
    ckp_sets: list[Any] = field(default_factory=list)

    def is_empty(self) -> bool:
        return self.control is None and not self.dummies and not self.ckp_sets

    def size(self) -> int:
        control = self.control
        size = 2 * EMPTY_LIST_BYTES + (
            EMPTY_DICT_BYTES if control is None else control.size())
        for dummy in self.dummies:
            size += ITEM_BYTES + dummy.wire_bytes
        for ckp_set in self.ckp_sets:
            size += ITEM_BYTES + ckp_set.wire_bytes
        return size


@dataclass(slots=True)
class Message:
    """One network message.

    The protocol layers fill in the first five fields: ``payload`` is the
    kind's typed record (the coherence part, ``alpha``) and ``piggyback``
    the checkpoint part (``beta``).  The rest are stamped once by
    :meth:`repro.net.network.Network.send` when the message goes on the
    wire: ``msg_id`` from the network's own counter (1, 2, ... per
    network), the send time, and the byte counts -- each record's
    closed-form ``size()`` -- that the stats, the latency model, the
    trace and the baselines' message logs all read.  A message is never
    edited after it is sent (a convention; nothing is frozen).
    """

    src: ProcessId
    dst: ProcessId
    kind: MessageKind
    payload: Any = NO_PAYLOAD
    piggyback: Optional[Piggyback] = None
    msg_id: int = 0
    send_time: float = -1.0
    payload_bytes: int = 0
    piggyback_bytes: int = 0

    @property
    def layer(self) -> str:
        return layer_of(self.kind)

    def total_bytes(self) -> int:
        return self.payload_bytes + self.piggyback_bytes

    def trace_args(self) -> tuple[MessageKind, int, ProcessId, ProcessId,
                                  Optional[tuple[int, int]]]:
        """What a trace row keeps of this message: kind, number, ends and
        piggybacked (dummy, CkpSet) counts -- scalars, so the row's text
        outlives any later edit of the message or its piggyback."""
        pig = self.piggyback
        return (self.kind, self.msg_id, self.src, self.dst,
                None if pig is None or pig.is_empty()
                else (len(pig.dummies), len(pig.ckp_sets)))

    def __str__(self) -> str:
        return describe(*self.trace_args())


#: A layer's handler for one message kind: a plain function called as
#: ``handler(layer, message)``.  Each layer keeps a class-level
#: ``handlers`` table of them; the process routes each kind to one.
MessageHandler = Callable[[Any, Message], None]


def describe(kind: MessageKind, msg_id: int, src: ProcessId, dst: ProcessId,
             pig: Optional[tuple[int, int]]) -> str:
    """A message's one-line text, from :meth:`Message.trace_args`."""
    suffix = "" if pig is None else f" +pig({pig[0]}d,{pig[1]}c)"
    return f"{kind.value} #{msg_id} {src}->{dst}{suffix}"
