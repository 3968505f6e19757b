"""Configuration objects for a simulated DiSOM cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.net.channel import LatencyModel
from repro.observers import Observers
from repro.types import ProcessId


@dataclass(frozen=True)
class CrashPlan:
    """A scheduled fail-stop crash of one process."""

    pid: ProcessId
    at_time: float
    #: If False, the system does not recover the process (used by tests
    #: that examine the un-recovered state).
    recover: bool = True

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise ConfigError(f"crash time must be non-negative: {self}")


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated workstation cluster."""

    processes: int = 4
    seed: int = 0
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: Free processors available to host recovering processes.
    spare_nodes: int = 2
    #: Writers wait for invalidation acks (strict CREW).  Ablation A3.
    strict_invalidation_acks: bool = True
    #: Memory consistency backend: one of
    #: :data:`repro.memory.model.CONSISTENCY_MODELS` ("entry" is the
    #: paper's protocol; "sequential" is the comparison backend of
    #: experiment E14).  The DiSOM checkpoint protocol requires
    #: "entry"; pair "sequential" with a baseline.
    consistency: str = "entry"
    #: Durable checkpoint store: a directory selects the on-disk
    #: FileBackend (checkpoints survive the Python process, sections
    #: zlib-compressed); None keeps the volatile in-memory backend.
    store_dir: Optional[str] = None
    #: Enable the structured trace log (tests use it; experiments mostly not).
    trace: bool = False
    trace_max_records: Optional[int] = 200_000
    #: Attach the inline verification layer (race detector + protocol
    #: invariant checker, see :mod:`repro.verify`); implies tracing.
    check: bool = False
    #: Unified observer registry (see :mod:`repro.observers`): becomes
    #: ``system.observers``, the one registry every process -- including
    #: recovery hosts created mid-run -- is constructed with.
    #: ``check=True`` registers the verifier on the same registry, so
    #: both compose.
    observers: Optional[Observers] = None

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ConfigError(f"need at least one process, got {self.processes}")
        if self.spare_nodes < 0:
            raise ConfigError("spare node count must be non-negative")
        from repro.memory.model import CONSISTENCY_MODELS

        if self.consistency not in CONSISTENCY_MODELS:
            raise ConfigError(
                f"unknown consistency model {self.consistency!r}; "
                f"one of {list(CONSISTENCY_MODELS)}"
            )

    def pids(self) -> list[ProcessId]:
        return list(range(self.processes))
