"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Raised when a configuration object is invalid or inconsistent."""


class SimulationError(ReproError):
    """Raised when the discrete-event kernel detects an internal problem."""


class DeadlockError(SimulationError):
    """Raised when the simulation can make no further progress.

    The kernel raises this when every live thread is blocked, no events are
    pending and at least one thread has not finished.  This usually means the
    workload has a genuine synchronization bug (e.g. acquiring an object that
    is never released) or the protocol under test lost a wake-up.
    """


class ProtocolError(ReproError):
    """Raised when a coherence or checkpoint protocol invariant is violated.

    These indicate bugs in a protocol implementation (ours or a baseline),
    never user errors: e.g. a release without a matching acquire reaching the
    coherence engine, or a duplicate ownership transfer.
    """


class MemoryModelError(ReproError):
    """Raised when an application program violates the entry-consistency contract.

    Entry consistency is a contract between the program and the system
    (paper section 3.1): all accesses to a shared object must be bracketed by
    acquire/release on its synchronization object.  Violations -- releasing an
    object the thread does not hold, writing under a read acquire, nested
    acquires of the same object -- raise this error.
    """


class ApplicationAborted(ReproError):
    """Raised when the multiple-failure detector aborts the application.

    Paper section 4.5 / Theorem 2: after multiple node failures the system is
    either brought to a consistent state or the application is aborted.  This
    exception is the "aborted" outcome.  It carries the reason so that
    experiments can report the conservative-abort rate.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class InvariantViolation(ReproError):
    """Raised by the verification layer when a checked invariant fails.

    Carries the structured description of the violation and, when the
    trace log is enabled, the slice of trace records surrounding the
    offending event so the failure can be diagnosed without re-running.
    """

    def __init__(self, rule: str, detail: str,
                 trace_slice: Optional[list] = None) -> None:
        super().__init__(f"[{rule}] {detail}")
        self.rule = rule
        self.detail = detail
        self.trace_slice: list = trace_slice if trace_slice is not None else []

    def __reduce__(self):
        # The default exception reduce replays __init__ with ``args``
        # (the single formatted message), which does not match this
        # two-argument signature; spell out the real constructor call so
        # violations survive the worker->parent pickle hop.
        return (type(self), (self.rule, self.detail, self.trace_slice))

    def format_slice(self, limit: int = 12) -> str:
        """Render the attached trace slice (most recent ``limit`` rows)."""
        rows = self.trace_slice[-limit:]
        if not rows:
            return "  (no trace attached; run with tracing enabled)"
        return "\n".join(f"  {row}" for row in rows)


class InconsistentStateError(ReproError):
    """Raised when the consistency checker finds an inconsistent system state.

    A system state is consistent iff all threads holding objects hold the last
    (non-lost) versions of those objects and no thread has acquired a version
    lost to a failure (paper section 3.1).  This error indicates the checked
    state violates that definition; in tests it means a protocol bug.
    """


class RecoveryError(ReproError):
    """Raised when the recovery procedure cannot complete.

    Distinct from :class:`ApplicationAborted`: an abort is the protocol's
    *designed* response to unrecoverable multiple failures, while a
    ``RecoveryError`` means the recovery machinery itself failed (e.g. no
    checkpoint exists for the crashed process, or no free processor is
    available to host the recovering process).
    """


class StorageError(ReproError):
    """Raised when a stable-storage backend fails an operation.

    Covers structural problems of the store itself (unreadable store
    directory, malformed slot layout) as opposed to corruption of a
    particular checkpoint image.
    """


class CheckpointCorruptError(StorageError):
    """Raised when a checkpoint image fails its integrity checks.

    A torn write, bit flip or truncated slot is detected through the
    per-section CRC32 checksums of the on-disk format.  Recovery treats
    a corrupt *latest* slot as survivable -- it falls back to the
    previous slot of the two-slot commit scheme -- and only surfaces
    this error when no intact image remains.
    """
