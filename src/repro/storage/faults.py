"""Storage-level fault injection.

Fail-stop node crashes are scheduled by the cluster
(:meth:`repro.cluster.system.DisomSystem.inject_crash`); this module
models the *disk-side* failure modes the two-slot commit scheme exists to
survive.  Each fault targets one checkpoint write and fires at a specific
point of the write protocol:

``TORN_WRITE``
    The image is only partially written before the (implicit) crash: the
    committed slot file is truncated mid-payload.  Detected by section
    CRC / truncation checks; recovery falls back to the previous slot.
``BIT_FLIP``
    The write completes but a byte of the slot rots afterwards (media
    error).  Detected by CRC; recovery falls back to the previous slot.
``MISSING_RENAME``
    The temp image is written and fsynced but the atomic rename never
    happens (crash between fsync and rename).  The slot still holds the
    previous checkpoint -- which is exactly the two-slot guarantee.
``STALE_SLOT``
    The write is silently dropped (e.g. a lost buffered write): nothing
    reaches the disk, the slot keeps its old image.

Faults are armed deterministically (by pid and/or checkpoint seq) so
experiments and tests reproduce bit-for-bit; a plan's ``count`` says how
many shots it has left.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError


class StorageFault(enum.Enum):
    """Storage failure modes injectable into a checkpoint write."""

    TORN_WRITE = "torn-write"
    BIT_FLIP = "bit-flip"
    MISSING_RENAME = "missing-rename"
    STALE_SLOT = "stale-slot"


#: CLI / config spelling -> fault kind.
FAULTS_BY_NAME = {fault.value: fault for fault in StorageFault}


@dataclass
class StorageFaultPlan:
    """One armed fault: fires on matching writes until ``count`` is spent.

    ``pid``/``seq`` of None match any process / any checkpoint sequence
    number.  ``count`` of None fires on every matching write.
    """

    kind: StorageFault
    pid: Optional[int] = None
    seq: Optional[int] = None
    count: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.count is not None and self.count < 1:
            raise ConfigError(f"fault count must be >= 1: {self}")

    def matches(self, pid: int, seq: int) -> bool:
        if self.count is not None and self.count <= 0:
            return False
        if self.pid is not None and self.pid != pid:
            return False
        if self.seq is not None and self.seq != seq:
            return False
        return True

    def consume(self) -> None:
        if self.count is not None:
            self.count -= 1


@dataclass
class StorageFaultInjector:
    """Deterministic fault schedule consulted by storage backends."""

    plans: list[StorageFaultPlan] = field(default_factory=list)

    def arm(
        self,
        kind: StorageFault | str,
        pid: Optional[int] = None,
        seq: Optional[int] = None,
        count: Optional[int] = 1,
    ) -> StorageFaultPlan:
        """Arm one fault; returns the plan so tests can inspect it."""
        if isinstance(kind, str):
            try:
                kind = FAULTS_BY_NAME[kind]
            except KeyError:
                raise ConfigError(
                    f"unknown storage fault {kind!r}; "
                    f"choose from {sorted(FAULTS_BY_NAME)}"
                ) from None
        plan = StorageFaultPlan(kind=kind, pid=pid, seq=seq, count=count)
        self.plans.append(plan)
        return plan

    def should_fire(self, kind: StorageFault, pid: int, seq: int) -> bool:
        """True (and consumes one shot) if ``kind`` is armed for this write."""
        for plan in self.plans:
            if plan.kind is kind and plan.matches(pid, seq):
                plan.consume()
                return True
        return False
