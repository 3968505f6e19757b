"""Richard & Singhal [12]: logging + asynchronous checkpointing for
sequentially-consistent recoverable DSM.

Their scheme, transplanted onto the shared coherence substrate so the
comparison runs on identical executions:

* every page (object transfer) *received* is logged in the volatile
  memory of the acquirer;
* whenever a *modified* page is transferred to another process, the
  volatile log is flushed to stable storage;
* processes also checkpoint asynchronously (periodic timer).

Because the original operates on VM pages, logged/transferred sizes are
``max(object_bytes, page_size)`` -- sequential-consistency DSMs could not
ship less than a page (see DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.baselines.base import FaultToleranceProtocol
from repro.memory.coherence import PendingRequest
from repro.memory.objects import SharedObject
from repro.net.sizing import blob_size, payload_size
from repro.threads.thread import Thread
from repro.types import AcquireType, ExecutionPoint, ProcessId


class RichardSinghalProtocol(FaultToleranceProtocol):
    """See module docstring."""

    name = "richard-singhal"
    supports_recovery = False  # failure-free cost model only

    def __init__(self, process: Any, page_size: int = 4096,
                 checkpoint_interval: Optional[float] = 200.0) -> None:
        super().__init__(process)
        self.page_size = page_size
        self.checkpoint_interval = checkpoint_interval
        #: Volatile log of received pages: bytes currently buffered.
        self.volatile_log_bytes = 0
        self.volatile_log_entries = 0
        self.logged_bytes_total = 0
        self.logged_entries_total = 0
        self.stable_flushes = 0
        self.stable_bytes = 0
        #: Objects modified locally since last flush (dirty pages).
        self._dirty: set[str] = set()
        self._timer = None

    @classmethod
    def factory(cls, page_size: int = 4096,
                checkpoint_interval: Optional[float] = 200.0) -> Callable:
        return lambda process: cls(process, page_size, checkpoint_interval)

    def _page_bytes(self, obj: SharedObject) -> int:
        return max(payload_size(obj.data), self.page_size)

    # -- hooks ---------------------------------------------------------
    def on_reply_received(self, thread: Thread, obj: SharedObject,
                          acq_type: AcquireType, ep_acq: ExecutionPoint,
                          p_prd: ProcessId, control: dict) -> None:
        # "logged all the pages acquired in the volatile memory of the
        # acquirer"
        size = self._page_bytes(obj)
        self.volatile_log_bytes += size
        self.volatile_log_entries += 1
        self.logged_bytes_total += size
        self.logged_entries_total += 1
        self.metrics.log_bytes_created += size
        self.metrics.log_entries_created += 1

    def on_release_write(self, thread: Thread, obj: SharedObject) -> None:
        self._dirty.add(obj.obj_id)

    def on_before_grant_data(self, obj: SharedObject, req: PendingRequest) -> None:
        # "saved the log in stable storage whenever a modified page was
        # transferred to another process"
        if obj.obj_id in self._dirty:
            self._flush()
            self._dirty.discard(obj.obj_id)

    def _flush(self) -> None:
        if self.volatile_log_bytes == 0:
            return
        self.stable_flushes += 1
        self.stable_bytes += self.volatile_log_bytes
        self.process.stable_store.note_write(self.pid, self.volatile_log_bytes)
        self.volatile_log_bytes = 0
        self.volatile_log_entries = 0

    # -- periodic checkpoint --------------------------------------------
    def on_start(self) -> None:
        self._arm_timer()

    def _arm_timer(self) -> None:
        if self.checkpoint_interval is None:
            return
        self._timer = self.process.kernel.schedule(
            self.checkpoint_interval, self._on_timer,
            label=f"rs-ckpt P{self.pid}",
        )

    def _on_timer(self) -> None:
        self._timer = None
        if not self.process.alive:
            return
        size = blob_size(self.process.directory.snapshot()) + blob_size(
            {tid: t.checkpoint_state() for tid, t in self.process.threads.items()}
        )
        self.record_checkpoint(size, "periodic")
        self._arm_timer()

    def stop_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "logged_bytes": self.logged_bytes_total,
            "logged_entries": self.logged_entries_total,
            "stable_flushes": self.stable_flushes,
            "stable_bytes": self.stable_bytes,
            "checkpoints": self.metrics.checkpoints.count,
        }
