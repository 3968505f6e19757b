"""Baseline fault-tolerance schemes the paper compares against.

Every baseline is a pluggable per-process protocol implementing
:class:`repro.baselines.base.FaultToleranceProtocol`, running on the same
entry-consistency coherence substrate and the same workloads as the
paper's protocol, so the experiment harness compares logging volume,
stable-storage traffic, extra messages, checkpoint counts and blocked
time on *identical executions*.

| Baseline | Source | What it models |
|---|---|---|
| ``NullProtocol`` | -- | no fault tolerance (overhead denominator) |
| ``RichardSinghalProtocol`` | Richard & Singhal [12] | SC-style: log every page received, flush to stable storage when a modified page is transferred |
| ``StummZhouProtocol`` | Stumm & Zhou [24] | read-replication: dirty page copies ride every message |
| ``ReceiverMessageLogging`` | Strom & Yemini [23] | pessimistic receiver-side message logging to stable storage |
| ``SenderMessageLogging`` | Johnson & Zwaenepoel [14] | sender-side volatile message logging |
| ``JanssensFuchsProtocol`` | Janssens & Fuchs [13] | communication-induced checkpoint before updates become visible |
| ``CoordinatedProtocol`` | Koo & Toueg [15] family | blocking two-phase coordinated checkpointing; recovery = global rollback |

The first six are failure-free cost models in
:mod:`repro.baselines.cost_models`; the coordinated scheme recovers
(:mod:`repro.baselines.coordinated`).
"""

from typing import Any, Callable

from repro.baselines.base import FaultToleranceProtocol
from repro.baselines.coordinated import CoordinatedProtocol
from repro.baselines.cost_models import (
    JanssensFuchsProtocol,
    NullProtocol,
    ReceiverMessageLogging,
    RichardSinghalProtocol,
    SenderMessageLogging,
    StummZhouProtocol,
)
# After ``base``: the paper's protocol subclasses it, and importing it
# first would re-enter this package half-initialised.
from repro.checkpoint.protocol import DisomCheckpointProtocol

#: Scheme registry: name -> protocol factory for
#: ``DisomSystem(protocol_factory=...)``, i.e. a ``protocol(process)``
#: constructor.  ``"disom"`` is the paper's own protocol, the default.
#: The CLI's ``--baseline`` flag and the api facade's ``baseline=``
#: keyword both resolve here; other parameters are passed with
#: ``functools.partial(Cls, interval=...)``.
ALL_BASELINES: dict[str, Callable[[Any], FaultToleranceProtocol]] = {
    "disom": DisomCheckpointProtocol,
    "none": NullProtocol,
    "richard-singhal": RichardSinghalProtocol,
    "stumm-zhou": StummZhouProtocol,
    "receiver-msg-log": ReceiverMessageLogging,
    "sender-msg-log": SenderMessageLogging,
    "janssens-fuchs": JanssensFuchsProtocol,
    "coordinated": CoordinatedProtocol,
}

__all__ = [
    "ALL_BASELINES",
    "CoordinatedProtocol",
    "FaultToleranceProtocol",
    "JanssensFuchsProtocol",
    "NullProtocol",
    "ReceiverMessageLogging",
    "RichardSinghalProtocol",
    "SenderMessageLogging",
    "StummZhouProtocol",
]
