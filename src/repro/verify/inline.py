"""Inline verification: attach the checkers to a live simulation.

``attach(system)`` (or ``ClusterConfig(check=True)``) registers an
:class:`InlineVerifier` and its
:class:`~repro.verify.invariants.InvariantChecker` on the system's
:class:`~repro.observers.Observers` registry before it runs.  The
verifier is an ordinary listener -- everything it learns arrives as an
event:

* ``on_mem_event`` feeds every memory event to the
  :class:`~repro.verify.races.RaceDetector` as it happens (the checker
  takes the same events for its dummy-coverage rule); the trace log is
  enabled too, but only so violations carry a readable slice;
* log, GC, dummy and CkpSet notifications go to the checker, from every
  process including those created later to host recoveries
  (``on_process_created``);
* ``on_recovery_complete`` triggers the shadow-equivalence check, and
  the first network-drain afterwards triggers the read-copy coherence
  sweep;
* at result-building time :meth:`InlineVerifier.finalize` reports the
  local acquires no dummy ever covered and produces a
  :class:`CheckReport`, which lands in ``RunResult.check_report`` (with
  its violations merged into ``RunResult.invariant_violations``).

The wall-clock overhead of the verifier is measured with
``time.perf_counter`` and reported -- it feeds the report only, never
simulation behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from repro.errors import InvariantViolation
from repro.types import ProcessId
from repro.verify.events import MemEvent
from repro.verify.invariants import InvariantChecker
from repro.verify.races import RaceDetector, RaceFinding


@dataclass
class CheckReport:
    """Outcome of the inline verification passes for one run."""

    races: List[RaceFinding] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    events_checked: int = 0
    #: Host-clock seconds spent inside the verifier (reporting only).
    overhead_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.races and not self.violations

    def problem_strings(self) -> List[str]:
        return ([f"race: {race}" for race in self.races]
                + [str(violation) for violation in self.violations])

    def verdict(self) -> str:
        """The summary minus the host-clock overhead: a pure function of
        the run, so it may appear in cached or compared output."""
        status = "clean" if self.ok else (
            f"{len(self.races)} race(s), {len(self.violations)} "
            f"invariant violation(s)"
        )
        return f"check: {status}; {self.events_checked} memory events"

    def summary(self) -> str:
        return (f"{self.verdict()}, "
                f"verifier overhead {self.overhead_seconds * 1000.0:.1f} ms")

    @classmethod
    def merge(cls, reports: List["CheckReport"]) -> "CheckReport":
        """Aggregate many per-run reports into one.

        Used by the parallel runners: each worker process attaches its
        own checkers and produces per-run reports; the parent merges
        them so a fanned-out ``--check`` invocation still ends in a
        single :class:`CheckReport` (findings concatenated, counters
        summed).
        """
        merged = cls()
        for report in reports:
            merged.races.extend(report.races)
            merged.violations.extend(report.violations)
            merged.events_checked += report.events_checked
            merged.overhead_seconds += report.overhead_seconds
        return merged


class InlineVerifier:
    """Bundles the race detector and invariant checker around one system."""

    def __init__(self, system: Any, strict: bool = False) -> None:
        self.system = system
        trace = system.kernel.trace
        trace.enabled = True
        self.races = RaceDetector()
        self.checker = InvariantChecker(trace=trace, strict=strict)
        self.overhead_seconds = 0.0
        self._pending_recovery_sweep = False
        #: Pids whose protocol records dummy entries (``emits_dummies``);
        #: baselines create no dummies, so only these are subject to
        #: the dummy-coverage pass.
        self._dummy_pids: Set[ProcessId] = set()
        system.verifier = self
        for pid in sorted(system.processes):
            self.on_process_created(system.processes[pid])
        system.observers.register(self.checker)
        system.observers.register(self)
        system.network.drained_hooks.append(self._on_drained)

    # ------------------------------------------------------------------
    # event feed (Observers listener surface)
    # ------------------------------------------------------------------
    def on_process_created(self, process: Any) -> None:
        """A process joined the cluster; again for each recovery host."""
        # A fresh incarnation starts its log from scratch (object
        # declaration re-appends V0 entries before the checkpoint is
        # restored), so the monotonicity history of the dead one no
        # longer applies.
        self.checker.on_restore(process.pid)
        if process.checkpoint_protocol.emits_dummies:
            self._dummy_pids.add(process.pid)

    def on_mem_event(self, event: MemEvent) -> None:
        started = time.perf_counter()
        try:
            self.races.feed(event)
        finally:
            self.overhead_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # recovery checks
    # ------------------------------------------------------------------
    def on_recovery_complete(self, pid: ProcessId) -> None:
        started = time.perf_counter()
        try:
            self.checker.check_recovery_shadow(self.system, pid)
            self._pending_recovery_sweep = True
        finally:
            self.overhead_seconds += time.perf_counter() - started
        if not self.system.network.in_flight:
            self._on_drained()

    def _on_drained(self) -> None:
        if not self._pending_recovery_sweep:
            return
        if any(p.recovery_manager is not None
               for p in self.system.processes.values()):
            return
        if not self.system.config.strict_invalidation_acks:
            # The A3 ablation legitimately allows transient staleness.
            self._pending_recovery_sweep = False
            return
        self._pending_recovery_sweep = False
        started = time.perf_counter()
        try:
            self.checker.check_read_copy_coherence(self.system)
        finally:
            self.overhead_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def finalize(self) -> CheckReport:
        started = time.perf_counter()
        try:
            self.checker.check_dummy_coverage(pids=self._dummy_pids)
        finally:
            self.overhead_seconds += time.perf_counter() - started
        return CheckReport(
            races=list(self.races.races),
            violations=list(self.checker.violations),
            events_checked=self.races.events_seen,
            overhead_seconds=self.overhead_seconds,
        )


def attach(system: Any, strict: bool = False) -> InlineVerifier:
    """Attach inline verification to a not-yet-run system."""
    verifier: Optional[InlineVerifier] = getattr(system, "verifier", None)
    if verifier is not None:
        return verifier
    return InlineVerifier(system, strict=strict)
