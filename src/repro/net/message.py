"""Message structure.

Messages are described in the paper (section 4.2, footnote 2) as tuples
``([alpha], [beta])`` where ``alpha`` is the memory-coherence information and
``beta`` the checkpoint-protocol information piggybacked on it.  We model
that split explicitly: :attr:`Message.payload` is the coherence part and
:attr:`Message.piggyback` the checkpoint part, so the byte accounting can
separate them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.sizing import payload_size
from repro.types import ProcessId


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
    APP = "app"  # analyze: allow(handler-coverage)

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


@dataclass(slots=True)
class Piggyback:
    """Checkpoint-protocol information riding on a coherence message.

    ``control`` carries the per-message checkpoint fields of the paper's
    ``([alpha],[beta])`` notation (``ep_acq`` on requests, ``ep_prd`` and
    ``version`` on replies); ``dummies`` carries dummy log entries being
    shipped off-node (section 4.2, local acquire step 3); ``ckp_sets``
    carries garbage-collection CkpSet announcements (section 4.4): at most
    one, the sender's newest, which supersedes any older one.  Dummies may
    accumulate between coherence messages to a given destination.
    """

    control: dict[str, Any] = field(default_factory=dict)
    dummies: list[Any] = field(default_factory=list)
    ckp_sets: list[Any] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.control and not self.dummies and not self.ckp_sets

    def size(self) -> int:
        if not self.control and not self.dummies and not self.ckp_sets:
            return _EMPTY_PIGGYBACK_BYTES
        return (
            payload_size(self.control)
            + payload_size(self.dummies)
            + payload_size(self.ckp_sets)
        )


#: Size of a piggyback carrying nothing -- the common case, precomputed.
_EMPTY_PIGGYBACK_BYTES = payload_size({}) + 2 * payload_size([])


@dataclass(slots=True)
class Message:
    """One network message.

    The protocol layers fill in the first five fields; the rest are
    stamped once by :meth:`repro.net.network.Network.send` when the
    message goes on the wire: ``msg_id`` from the network's own counter
    (1, 2, ... per network), the send time, and the byte counts that the
    stats, the latency model, the trace and the baselines' message logs
    all read.  A message is never edited after it is sent.
    """

    src: ProcessId
    dst: ProcessId
    kind: MessageKind
    payload: dict[str, Any] = field(default_factory=dict)
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

    def __str__(self) -> str:
        pig = ""
        if self.piggyback is not None and not self.piggyback.is_empty():
            pig = f" +pig({len(self.piggyback.dummies)}d,{len(self.piggyback.ckp_sets)}c)"
        return f"{self.kind} #{self.msg_id} {self.src}->{self.dst}{pig}"
