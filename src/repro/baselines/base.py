"""Pluggable fault-tolerance protocol interface.

A :class:`~repro.cluster.process.DisomProcess` hosts exactly one protocol
object.  The default is the paper's
:class:`~repro.checkpoint.protocol.DisomCheckpointProtocol`; baselines
subclass :class:`FaultToleranceProtocol`, which provides no-op defaults
for every integration point:

* the :class:`~repro.memory.coherence.CoherenceHooks` methods (grant,
  release, local acquire...);
* piggyback collection/application on coherence messages;
* lifecycle (``start_timer``/``stop_timer`` on process start/crash);
* protocol-private message kinds (``handles_kind``/``on_protocol_message``)
  and incoming-message filtering (used by the coordinated baseline's
  epoch mechanism).
"""

from __future__ import annotations

from typing import Any

from repro.memory.coherence import CoherenceHooks
from repro.net.message import Message, MessageKind
from repro.types import ProcessId


class FaultToleranceProtocol(CoherenceHooks):
    """Base class for all fault-tolerance schemes (defaults: do nothing)."""

    #: Human-readable scheme name used in reports.
    name = "base"
    #: Whether the scheme can recover a crashed process.
    supports_recovery = False
    #: Whether the scheme records dummy entries for local acquires.
    #: The inline verifier's dummy-coverage pass only applies to
    #: processes whose protocol does.
    emits_dummies = False

    def __init__(self, process: Any) -> None:
        self.process = process

    @property
    def pid(self) -> ProcessId:
        return self.process.pid

    @property
    def metrics(self):
        return self.process.metrics

    # -- lifecycle ---------------------------------------------------------
    def on_start(self) -> None:
        """Called when the process starts executing threads."""

    def stop_timer(self) -> None:
        """Called on crash: cancel any timers."""

    # -- piggyback transport -------------------------------------------------
    def collect_piggyback(self, dst: ProcessId) -> tuple[list, list]:
        """Data to attach to an outgoing coherence message: (dummies, ckp_sets)."""
        return [], []

    def on_piggyback(self, src: ProcessId, dummies: list, ckp_sets: list) -> None:
        """Incoming piggyback payloads."""

    # -- protocol-private messages ------------------------------------------
    def handles_kind(self, kind: MessageKind) -> bool:
        return False

    def on_protocol_message(self, message: Message) -> None:  # pragma: no cover
        raise NotImplementedError

    def filter_incoming(self, message: Message) -> bool:
        """Return False to drop an incoming message (e.g. stale epoch)."""
        return True

    # -- outgoing messages ------------------------------------------------------
    def on_message_sent(self, message: Message) -> None:
        """Called for every message this process puts on the wire."""

    def record_checkpoint(self, size: int, trigger: str) -> None:
        """Account a checkpoint the scheme keeps outside the store's backend."""
        self.process.stable_store.note_write(self.pid, size)
        self.metrics.checkpoints.record(self.process.kernel.now, size, trigger)

    # -- restore ---------------------------------------------------------------
    def restore_from_checkpoint(self, checkpoint: Any) -> None:
        """Restore protocol-private state from a checkpoint image."""

    # -- stats ------------------------------------------------------------------
    def overhead_summary(self) -> dict[str, Any]:
        """Scheme-specific counters for the experiment reports."""
        return {}
