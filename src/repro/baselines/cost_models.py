"""The failure-free cost models the paper compares against (section 2).

Each class is a :class:`~repro.baselines.base.FaultToleranceProtocol`
transplanted onto the shared entry-consistency substrate, so E3 compares
logged bytes, stable writes and extra messages on identical executions.
None of them can recover a crashed process: a crash aborts the run (the
base class's ``recover_crashed``).

Page-based schemes charge ``max(object_bytes, page_size)`` per page:
sequential-consistency DSMs of the era could not ship or log less than a
VM page (see DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines.base import FaultToleranceProtocol
from repro.memory.coherence import PendingRequest
from repro.memory.objects import SharedObject
from repro.net.message import GrantControl, Message
from repro.net.sizing import blob_size, payload_size
from repro.threads.thread import Thread
from repro.types import AcquireType, ExecutionPoint, ProcessId


def _page_bytes(data: Any, page_size: int) -> int:
    """What a page-based DSM pays to ship or log ``data``."""
    return max(payload_size(data), page_size)


def _state_image_bytes(process: Any) -> int:
    """Size of a full process image: object directory plus thread states."""
    return blob_size(process.directory.snapshot()) + blob_size(
        {tid: t.checkpoint_state() for tid, t in process.threads.items()}
    )


def _note_logged(metrics: Any, size: int) -> None:
    """One log entry of ``size`` bytes in the cross-scheme log counters."""
    metrics.log_bytes_created += size
    metrics.log_entries_created += 1


class NullProtocol(FaultToleranceProtocol):
    """No fault tolerance: the overhead denominator.

    Runs the bare entry-consistency coherence protocol with no logging, no
    checkpoints and no piggybacked control information.  A crash is fatal
    (the application aborts) -- which is exactly the paper's motivation
    paragraph: "If no provision is made for handling failures, it is
    unlikely that long running applications will terminate successfully."
    """

    name = "none"


class RichardSinghalProtocol(FaultToleranceProtocol):
    """Richard & Singhal [12]: logging + asynchronous checkpointing for
    sequentially-consistent recoverable DSM.

    * every page (object transfer) *received* is logged in the volatile
      memory of the acquirer;
    * whenever a *modified* page is transferred to another process, the
      volatile log is flushed to stable storage;
    * processes also checkpoint asynchronously (periodic timer).
    """

    name = "richard-singhal"

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

    # -- hooks ---------------------------------------------------------
    def on_reply_received(self, thread: Thread, obj: SharedObject,
                          acq_type: AcquireType, ep_acq: ExecutionPoint,
                          p_prd: ProcessId, control: GrantControl) -> None:
        # "logged all the pages acquired in the volatile memory of the
        # acquirer"
        size = _page_bytes(obj.data, self.page_size)
        self.volatile_log_bytes += size
        self.volatile_log_entries += 1
        self.logged_bytes_total += size
        self.logged_entries_total += 1
        _note_logged(self.metrics, size)

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
        self.record_checkpoint(_state_image_bytes(self.process), "periodic")
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


class StummZhouProtocol(FaultToleranceProtocol):
    """Stumm & Zhou [24]: fault-tolerant read-replication DSM.

    "In their read-replication algorithm a process sends a copy of the
    dirty pages on every message send" -- i.e. modified pages are eagerly
    replicated to survive the sender's failure.  We account the extra
    bytes that ride on every outgoing message (the dirty set is cleared
    once shipped, as a replica then exists elsewhere).

    The paper notes this is only "a partial solution to the process
    recovery problem, since only the state of shared pages is recovered".
    """

    name = "stumm-zhou"

    def __init__(self, process: Any, page_size: int = 4096) -> None:
        super().__init__(process)
        self.page_size = page_size
        self._dirty: set[str] = set()
        self.replication_bytes = 0
        self.replication_pages = 0
        self.carrier_messages = 0

    def on_release_write(self, thread: Thread, obj: SharedObject) -> None:
        self._dirty.add(obj.obj_id)

    def on_message_sent(self, message: Message) -> None:
        if not self._dirty:
            return
        extra = 0
        for obj_id in self._dirty:
            obj = self.process.directory.get(obj_id)
            extra += _page_bytes(obj.data, self.page_size)
            self.replication_pages += 1
        self._dirty.clear()
        self.replication_bytes += extra
        self.carrier_messages += 1
        # Account the replica bytes as piggyback on the network stats so
        # byte totals are comparable across schemes.
        self.process.network.stats.piggyback_bytes += extra

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "replication_bytes": self.replication_bytes,
            "replication_pages": self.replication_pages,
            "carrier_messages": self.carrier_messages,
        }


class ReceiverMessageLogging(FaultToleranceProtocol):
    """Strom & Yemini [23], pessimistic receiver-side message logging.

    "Our shared memory abstraction is implemented using messages,
    therefore we could use a message logging protocol to achieve fault
    tolerance.  This solution would perform worse than our protocol
    because our protocol takes advantage of the memory model constraints
    to avoid logging all the information in all the messages."  Every
    received message (payload + piggyback) is logged -- synchronously, to
    stable storage -- before being processed.
    """

    name = "receiver-msg-log"

    def __init__(self, process: Any) -> None:
        super().__init__(process)
        self.logged_messages = 0
        self.logged_bytes = 0
        self.stable_writes = 0

    def filter_incoming(self, message: Message) -> bool:
        # Log-before-process: one stable write per received message.
        size = message.total_bytes()
        self.logged_messages += 1
        self.logged_bytes += size
        self.stable_writes += 1
        self.process.stable_store.note_write(self.pid, size)
        _note_logged(self.metrics, size)
        return True

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "logged_messages": self.logged_messages,
            "logged_bytes": self.logged_bytes,
            "stable_writes": self.stable_writes,
        }


class SenderMessageLogging(FaultToleranceProtocol):
    """Johnson & Zwaenepoel [14], sender-based message logging.

    Every sent message (payload + piggyback) is logged in the *sender's
    volatile memory*; receivers return sequence numbers piggybacked on
    existing traffic, so the failure-free cost is low.
    """

    name = "sender-msg-log"

    def __init__(self, process: Any) -> None:
        super().__init__(process)
        self.logged_messages = 0
        self.logged_bytes = 0

    def on_message_sent(self, message: Message) -> None:
        size = message.total_bytes()
        self.logged_messages += 1
        self.logged_bytes += size
        _note_logged(self.metrics, size)

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "logged_messages": self.logged_messages,
            "logged_bytes": self.logged_bytes,
        }


class JanssensFuchsProtocol(FaultToleranceProtocol):
    """Janssens & Fuchs [13]: relaxed-consistency communication-induced
    checkpointing.

    "In their protocol a process is checkpointed exactly before its
    updates become visible to the other processes."  On the
    entry-consistency engine, updates become visible when another
    process's acquire is granted data -- the ``on_before_grant_data``
    hook.  A checkpoint is taken there whenever the process has produced
    new versions since its last checkpoint.

    The paper cites their result -- "a five- to ten-fold decrease in
    checkpoint overhead over sequential consistency based techniques" --
    as the frame for relaxed-model schemes; experiment E3 places the DiSOM
    protocol against this baseline on checkpoint count/bytes.
    """

    name = "janssens-fuchs"

    def __init__(self, process: Any) -> None:
        super().__init__(process)
        self._dirty_since_checkpoint = False
        self.induced_checkpoints = 0

    def on_release_write(self, thread: Thread, obj: SharedObject) -> None:
        self._dirty_since_checkpoint = True

    def on_before_grant_data(self, obj: SharedObject, req: PendingRequest) -> None:
        if not self._dirty_since_checkpoint:
            return
        # Checkpoint exactly before our updates become visible elsewhere.
        size = _state_image_bytes(self.process)
        self.induced_checkpoints += 1
        self.record_checkpoint(size, "communication-induced")
        self._dirty_since_checkpoint = False

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "induced_checkpoints": self.induced_checkpoints,
            "checkpoint_bytes": self.metrics.checkpoints.bytes_total,
        }
