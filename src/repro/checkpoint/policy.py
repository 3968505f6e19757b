"""Checkpoint triggering policy and CkpSet (paper sections 4.2 / 4.4).

"From time to time, each process checkpoints itself in an asynchronous
way, independently from the others. ... The size of the object log and the
elapsed time since the last checkpoint are used to determine the moment to
take the checkpoint."

The policy is deliberately independent of the application's actions -- the
paper argues this lets the checkpoint frequency be chosen purely from
recovery-time constraints (section 2), which experiment E8 demonstrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError, ProtocolError
from repro.net.sizing import state_bytes
from repro.types import ExecutionPoint, ProcessId, Tid


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to checkpoint.

    ``interval``: periodic timer in simulated time units (None disables).
    ``log_highwater``: take a checkpoint whenever the volatile log exceeds
    this many bytes (None disables).  A checkpoint is always taken at
    process start so recovery has a base image.
    """

    interval: Optional[float] = 200.0
    log_highwater: Optional[int] = None
    #: Transport for checkpoint control info (dummy entries and CkpSet
    #: announcements): "piggyback" rides on coherence messages (the
    #: paper's design, zero extra messages); "eager" sends dedicated
    #: messages immediately (ablation A1).
    control_transport: str = "piggyback"
    #: Extension (ablation A4): write only the state that changed since
    #: the previous checkpoint.  Stable-write *cost* shrinks to the delta;
    #: recovery still loads the full (materialized) image.
    incremental: bool = False

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ConfigError(f"checkpoint interval must be positive: {self.interval}")
        if self.log_highwater is not None and self.log_highwater <= 0:
            raise ConfigError(f"log high-water mark must be positive: {self.log_highwater}")
        if self.control_transport not in ("piggyback", "eager"):
            raise ConfigError(f"unknown control_transport {self.control_transport!r}")

    @staticmethod
    def disabled() -> "CheckpointPolicy":
        """No periodic/high-water checkpoints (initial one still taken)."""
        return CheckpointPolicy(interval=None, log_highwater=None)

    def highwater_exceeded(self, log_bytes: int) -> bool:
        return self.log_highwater is not None and log_bytes > self.log_highwater


@dataclass(frozen=True)
class CkpSet:
    """The set of thread execution points at a checkpoint (sections 4.3/4.4).

    Broadcast (piggybacked) after a checkpoint to drive garbage collection,
    and sent in the recovery request to scope data collection.  Every
    point is on one of ``pid``'s threads; GC relies on it.
    """

    pid: ProcessId
    seq: int
    points: tuple[ExecutionPoint, ...]

    def __post_init__(self) -> None:
        if any(point.tid.pid != self.pid for point in self.points):
            raise ProtocolError(f"{self} names another process's thread")

    def lt_of(self, tid: Tid) -> Optional[int]:
        return self.lts_by_tid().get(tid)

    def lts_by_tid(self) -> dict[Tid, int]:
        """Checkpoint logical time per tid, memoized (the instance is
        frozen and every GC scan against this CkpSet needs the map)."""
        cached = self.__dict__.get("_lts")
        if cached is None:
            cached = {point.tid: point.lt for point in self.points}
            object.__setattr__(self, "_lts", cached)
        return cached

    @property
    def wire_bytes(self) -> int:
        """Size-model bytes, memoized like ``lts_by_tid``: the newest
        CkpSet is piggybacked to every peer."""
        cached = self.__dict__.get("_wire_bytes")
        if cached is None:
            cached = state_bytes(self)
            object.__setattr__(self, "_wire_bytes", cached)
        return cached

    # Fast pickle path (see repro.types.Tid.__getstate__): also keeps the
    # memos out of pickles and out of the wire-size model.
    def __getstate__(self) -> list:
        return [self.pid, self.seq, self.points]

    def __setstate__(self, state: list) -> None:
        object.__setattr__(self, "pid", state[0])
        object.__setattr__(self, "seq", state[1])
        object.__setattr__(self, "points", state[2])

    def __str__(self) -> str:
        pts = ",".join(str(p) for p in self.points)
        return f"CkpSet(P{self.pid}#{self.seq}:{pts})"


@dataclass
class CheckpointStats:
    """Per-process checkpoint accounting for the experiments."""

    count: int = 0
    bytes_total: int = 0
    last_at: float = -math.inf
    triggers: dict[str, int] = field(default_factory=dict)

    def record(self, when: float, size: int, trigger: str) -> None:
        self.count += 1
        self.bytes_total += size
        self.last_at = when
        self.triggers[trigger] = self.triggers.get(trigger, 0) + 1
