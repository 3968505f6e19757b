"""Deterministic discrete-event simulation kernel.

This package is the bottom substrate of the reproduction: a minimal but
complete discrete-event simulator on which the network, the DiSOM
processes (fail-stop crashes included) and all baselines run.  Everything
above it is deterministic given the kernel's seed, which is what makes the
paper's piece-wise-determinism assumption (and therefore checkpoint/replay
testing) tractable.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "Event",
    "EventQueue",
    "Kernel",
    "RngRegistry",
    "TraceLog",
    "TraceRecord",
]
