"""Message-logging baselines (section 2 of the paper).

"Our shared memory abstraction is implemented using messages, therefore we
could use a message logging protocol to achieve fault tolerance.  This
solution would perform worse than our protocol because our protocol takes
advantage of the memory model constraints to avoid logging all the
information in all the messages."

Two classical variants on identical executions:

* :class:`ReceiverMessageLogging` (Strom & Yemini [23], pessimistic
  variant): every received message is logged -- synchronously, to stable
  storage -- before being processed;
* :class:`SenderMessageLogging` (Johnson & Zwaenepoel [14]): every sent
  message is logged in the *sender's volatile memory*; receivers return
  sequence numbers piggybacked on existing traffic.

Both log the full message (payload + piggyback); the experiment E3
compares their byte volume against the checkpoint protocol's
release-write-only log.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.baselines.base import FaultToleranceProtocol
from repro.net.message import Message


class ReceiverMessageLogging(FaultToleranceProtocol):
    """Pessimistic receiver-side message logging."""

    name = "receiver-msg-log"
    supports_recovery = False

    def __init__(self, process: Any) -> None:
        super().__init__(process)
        self.logged_messages = 0
        self.logged_bytes = 0
        self.stable_writes = 0

    @classmethod
    def factory(cls) -> Callable:
        return cls

    def filter_incoming(self, message: Message) -> bool:
        # Log-before-process: one stable write per received message.
        size = message.total_bytes()
        self.logged_messages += 1
        self.logged_bytes += size
        self.stable_writes += 1
        self.process.stable_store.note_write(self.pid, size)
        self.metrics.log_bytes_created += size
        self.metrics.log_entries_created += 1
        return True

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "logged_messages": self.logged_messages,
            "logged_bytes": self.logged_bytes,
            "stable_writes": self.stable_writes,
        }


class SenderMessageLogging(FaultToleranceProtocol):
    """Sender-based message logging (volatile, low failure-free cost)."""

    name = "sender-msg-log"
    supports_recovery = False

    def __init__(self, process: Any) -> None:
        super().__init__(process)
        self.logged_messages = 0
        self.logged_bytes = 0

    @classmethod
    def factory(cls) -> Callable:
        return cls

    def on_message_sent(self, message: Message) -> None:
        size = message.total_bytes()
        self.logged_messages += 1
        self.logged_bytes += size
        self.metrics.log_bytes_created += size
        self.metrics.log_entries_created += 1

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "logged_messages": self.logged_messages,
            "logged_bytes": self.logged_bytes,
        }
