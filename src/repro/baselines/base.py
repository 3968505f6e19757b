"""Pluggable fault-tolerance protocol interface.

A :class:`~repro.cluster.process.DisomProcess` hosts exactly one protocol
object, built by a ``protocol(process)`` constructor from
:data:`repro.baselines.ALL_BASELINES` -- the paper's
:class:`~repro.checkpoint.protocol.DisomCheckpointProtocol` (``"disom"``)
or a baseline.  Each subclasses :class:`FaultToleranceProtocol`, which
provides no-op defaults for every integration point:

* the :class:`~repro.memory.coherence.CoherenceHooks` methods (grant,
  release, local acquire...);
* piggyback collection/application on coherence messages;
* lifecycle (``on_start``/``stop_timer`` on process start/crash,
  ``flush_pending_writes`` at the end of a run, ``take_checkpoint`` on a
  cluster-wide cut);
* every message kind the coherence engine does not handle (the
  ``handlers`` table: DiSOM's recovery exchange and abort, the
  coordinated baseline's rounds) and incoming-message filtering (the
  coordinated baseline's epoch mechanism);
* crash handling (``recover_crashed``, ``recover_from_storage``,
  ``restore_from_checkpoint``) and the figures the run result reports
  (``peak_log_bytes``, ``overhead_summary``).

The cluster talks to a scheme through these methods only; it never asks
which scheme it holds.
"""

from __future__ import annotations

from typing import Any, ClassVar, Mapping

from repro.errors import ConfigError
from repro.memory.coherence import CoherenceHooks
from repro.net.message import Message, MessageHandler, MessageKind
from repro.types import ProcessId


class FaultToleranceProtocol(CoherenceHooks):
    """Base class for all fault-tolerance schemes (defaults: do nothing)."""

    #: Human-readable scheme name used in reports.
    name = "base"
    #: Whether the scheme records dummy entries for local acquires.
    #: The inline verifier's dummy-coverage pass only applies to
    #: processes whose protocol does.
    emits_dummies = False
    #: The scheme's own message kinds -> their one handler each; the
    #: process binds them to this protocol object.
    handlers: ClassVar[Mapping[MessageKind, MessageHandler]] = {}

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

    def flush_pending_writes(self) -> None:
        """The run ended: commit checkpoint writes still in flight."""

    def take_checkpoint(self, trigger: str, synchronous: bool = False) -> Any:
        """Checkpoint now, as part of a cluster-wide cut
        (``DisomSystem.checkpoint_all``); schemes without independent
        checkpoints ignore it."""

    # -- piggyback transport -------------------------------------------------
    def collect_piggyback(self, dst: ProcessId) -> tuple[list, list]:
        """Data to attach to an outgoing coherence message: (dummies, ckp_sets)."""
        return [], []

    def on_piggyback(self, src: ProcessId, dummies: list, ckp_sets: list) -> None:
        """Incoming piggyback payloads."""

    # -- protocol-private messages ------------------------------------------
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

    # -- crash / restore -------------------------------------------------------
    def recover_crashed(self, system: Any, pid: ProcessId) -> None:
        """The crash of ``pid`` (this protocol's process) was detected:
        recover it, or -- the default, for schemes that cannot -- abort
        the run."""
        system.abort(
            f"process {pid} crashed and scheme '{self.name}' "
            "cannot recover it",
            from_pid=pid,
        )

    def recover_from_storage(self) -> None:
        """Cold restart (``DisomSystem.recover_all_from_storage``): load
        this fresh process's latest stored checkpoint and recover it."""
        raise ConfigError(
            f"scheme '{self.name}' cannot restart from stored checkpoints"
        )

    def restore_from_checkpoint(self, checkpoint: Any) -> None:
        """Restore protocol-private state from a checkpoint image, after
        the process's objects and threads were restored from it."""

    # -- stats ------------------------------------------------------------------
    def peak_log_bytes(self) -> int:
        """High-water byte mark of the scheme's volatile log (0: none)."""
        return 0

    def overhead_summary(self) -> dict[str, Any]:
        """Scheme-specific counters for the experiment reports."""
        return {}
