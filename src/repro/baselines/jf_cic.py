"""Janssens & Fuchs [13]: relaxed-consistency communication-induced
checkpointing.

"In their protocol a process is checkpointed exactly before its updates
become visible to the other processes."  On the entry-consistency engine,
updates become visible when another process's acquire is granted data --
the ``on_before_grant_data`` hook.  A checkpoint is taken there whenever
the process has produced new versions since its last checkpoint.

The paper cites their result -- "a five- to ten-fold decrease in
checkpoint overhead over sequential consistency based techniques" -- as
the frame for relaxed-model schemes; experiment E3 places the DiSOM
protocol against this baseline on checkpoint count/bytes.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.baselines.base import FaultToleranceProtocol
from repro.memory.coherence import PendingRequest
from repro.memory.objects import SharedObject
from repro.net.sizing import blob_size
from repro.threads.thread import Thread


class JanssensFuchsProtocol(FaultToleranceProtocol):
    """See module docstring."""

    name = "janssens-fuchs"
    supports_recovery = False  # failure-free cost model only

    def __init__(self, process: Any) -> None:
        super().__init__(process)
        self._dirty_since_checkpoint = False
        self.induced_checkpoints = 0

    @classmethod
    def factory(cls) -> Callable:
        return cls

    def on_release_write(self, thread: Thread, obj: SharedObject) -> None:
        self._dirty_since_checkpoint = True

    def on_before_grant_data(self, obj: SharedObject, req: PendingRequest) -> None:
        if not self._dirty_since_checkpoint:
            return
        # Checkpoint exactly before our updates become visible elsewhere.
        size = blob_size(self.process.directory.snapshot()) + blob_size(
            {tid: t.checkpoint_state() for tid, t in self.process.threads.items()}
        )
        self.induced_checkpoints += 1
        self.record_checkpoint(size, "communication-induced")
        self._dirty_since_checkpoint = False

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "induced_checkpoints": self.induced_checkpoints,
            "checkpoint_bytes": self.metrics.checkpoints.bytes_total,
        }
