"""Seeded faults: known-bad inputs every checker must flag.

One registry, :data:`SEEDED_FAULTS`, maps each kind to a callable that
builds a small, self-contained input containing exactly one planted
defect, runs the relevant pass over it and returns the detections --
event-level scenarios for the runtime checkers (race detector,
invariant checker, the fuzzer's oracle), in-memory source snippets for
the static analyzers.  They serve two masters: the test suite asserts
each fault is detected, and ``repro check --seed-fault <kind>``
demonstrates end-to-end that a planted fault produces a nonzero exit
with a pointed report.  CI inverts that exit code, so a checker that
silently rots into a yes-sayer fails the build, not the next person to
introduce the defect.
"""

from __future__ import annotations

import textwrap
from functools import partial
from typing import Any, Callable, Dict, List, Sequence

from repro.analysis.findings import Finding, load_source_table
from repro.analysis.runner import ANALYZERS
from repro.errors import InvariantViolation
from repro.observers import Observers
from repro.sim.tracing import TraceLog
from repro.types import ExecutionPoint, Tid
from repro.verify.events import MemEvent, publish_mem_event
from repro.verify.invariants import InvariantChecker
from repro.verify.races import RaceDetector, RaceFinding


def _mem(observers: Observers, trace: TraceLog, when: float, kind: str,
         tid: Tid, lt: int, obj: str, mode: str, **extra: Any) -> None:
    """One hand-made memory event, through the engine's own publisher."""
    fields: Dict[str, Any] = {"sync_id": obj, "version": 1, **extra}
    publish_mem_event(
        MemEvent(kind, when, tid.pid, tid, lt, obj, mode=mode, **fields),
        observers, trace)


def seeded_race() -> List[RaceFinding]:
    """An unguarded write racing a guarded read of the same object.

    Thread t0.0 properly brackets a write of ``x``; thread t1.0 then
    writes ``x`` without ever acquiring its guard, so no happens-before
    edge orders the two writes.
    """
    detector = RaceDetector()
    observers, trace = Observers(detector), TraceLog(enabled=True)
    writer, rogue = Tid(0, 0), Tid(1, 0)
    _mem(observers, trace, 1.0, "acquire", writer, 1, "x", "W")
    _mem(observers, trace, 2.0, "write", writer, 1, "x", "W")
    _mem(observers, trace, 3.0, "release", writer, 1, "x", "W")
    # The rogue thread skips the acquire entirely (a broken program
    # would produce exactly this event stream).
    _mem(observers, trace, 4.0, "write", rogue, 1, "x", "W")
    return detector.races


def seeded_gc_unsafe() -> List[InvariantViolation]:
    """GC driven by a forged CkpSet that covers nothing.

    A log entry records an acquire at ``t1.0@9``; the announced CkpSet
    of P1 has floor 5 for that thread, but the CkpSet actually handed to
    GC claims floor 100 -- dropping the pair both uncovered (vs the
    announcement) and forged.
    """
    from repro.checkpoint.gc import gc_thread_sets
    from repro.checkpoint.log import LogEntry, ProcessLog
    from repro.checkpoint.policy import CkpSet

    trace = TraceLog(enabled=True)
    checker = InvariantChecker(trace=trace, strict=False)
    observers = Observers(checker)
    log = ProcessLog()
    producer = Tid(0, 0)
    entry = LogEntry(obj_id="x", version=1, obj_data=0, tid_prd=producer,
                     ep_release=ExecutionPoint(producer, 3))
    entry.add_access(ExecutionPoint(Tid(1, 0), 9),
                     ExecutionPoint(producer, 3))
    log.append(entry)

    _mem(observers, trace, 1.0, "release", producer, 3, "x", "W")
    _mem(observers, trace, 2.0, "acquire", Tid(1, 0), 9, "x", "R")
    trace.emit(3.0, "gc", "P1 announces CkpSet floor <t1.0@5>")
    trace.emit(4.0, "gc", "GC driven by forged CkpSet floor <t1.0@100>")
    observers.on_ckp_set(CkpSet(pid=1, seq=1,
                                points=(ExecutionPoint(Tid(1, 0), 5),)))
    forged = CkpSet(pid=1, seq=2, points=(ExecutionPoint(Tid(1, 0), 100),))
    gc_thread_sets(log, forged, observers=observers)
    return checker.violations


def seeded_dummy_chain() -> List[InvariantViolation]:
    """A local acquire whose dummy entry was never created.

    Two local acquires are published; the protocol only ever reported
    a dummy for the first, so the second would be unrecoverable after
    a crash.
    """
    from repro.checkpoint.dummy import DummyEntry
    from repro.types import AcquireType

    trace = TraceLog(enabled=True)
    checker = InvariantChecker(trace=trace, strict=False)
    observers = Observers(checker)
    thread = Tid(2, 0)
    _mem(observers, trace, 1.0, "acquire", thread, 4, "y", "R", local=True)
    _mem(observers, trace, 2.0, "acquire", thread, 5, "y", "R", local=True)
    observers.on_dummy_created(2, DummyEntry(
        obj_id="y", ep_acq=ExecutionPoint(thread, 4),
        local_dep=None, type=AcquireType.READ,
    ))
    checker.check_dummy_coverage()
    return checker.violations


def seeded_bad_schedule() -> Dict[str, Any]:
    """A known-bad failure schedule, padded with inert decoy elements.

    The core is corpus entry ``ac9a98fdac42fc4e.json``: the sor
    workload on 5 processes, seed 10911, under the coordinated baseline
    with wire jitter, crashing P4@54.0 -- the post-recovery
    ``sor.barrier`` race the inline checker reports.  This rides on that
    open bug class; when it is fixed, re-base the schedule on whatever
    known-bad run is left, or the seeded fault stops being detected.

    The padding -- two decoy crashes far past the end of the run (they
    never execute) and a log high-water trigger far above any reachable
    log size -- does not change behavior; it exists so the fuzzer's
    shrinker has something real to remove.  Delta debugging must strip
    all three decoys and return a 2-element schedule.
    """
    from repro.fuzz.schedule import canonical_schedule

    return canonical_schedule({
        "kind": "workload",
        "workload": "sor",
        "baseline": "coordinated",
        "processes": 5,
        "seed": 10911,
        "interval": 50.0,
        "latency": {"base": 0.68, "jitter": 1.51},
        "crashes": [[4, 54.0], [0, 5000.0], [1, 6000.0]],
        "highwater": 10_000_000,
        "check": True,
    })


def seeded_schedule() -> List[InvariantViolation]:
    """The padded known-bad schedule through the fuzzer's oracle."""
    from repro.fuzz.engine import run_trial

    outcome = run_trial(seeded_bad_schedule())
    if outcome["status"] != "violation":
        return []
    return [InvariantViolation(
        "seeded-schedule",
        f"{outcome['error_type']}: {outcome['message']}")]


# ----------------------------------------------------------------------
# known-bad source snippets: one injected defect per static analyzer
# ----------------------------------------------------------------------
_LOCKS_BAD: Dict[str, str] = {
    "repro/server/seeded_bad.py": textwrap.dedent(
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._other = threading.Lock()
                self.value = 0

            def bump(self):
                with self._lock:
                    self.value += 1

            def bump2(self):
                with self._lock:
                    self.value += 2

            def bump3(self):
                with self._lock:
                    self.value += 3

            def read(self):
                with self._lock:
                    return self.value

            def racy_reset(self):
                self.value = 0      # unguarded write

            def forward(self):
                with self._lock:
                    with self._other:
                        self.value += 1

            def backward(self):
                with self._other:
                    with self._lock:
                        self.value += 1

            def leak(self):
                self._lock.acquire()
                if self.value > 10:
                    return          # acquire does not dominate release
                self._lock.release()
        """),
}

_PURITY_BAD: Dict[str, str] = {
    "repro/clockx/clockutil.py": textwrap.dedent(
        """
        import time

        def elapsed():
            return time.monotonic()
        """),
    "repro/sim/seeded_kernel.py": textwrap.dedent(
        """
        from repro.clockx import clockutil

        def step():
            return clockutil.elapsed()
        """),
}

_ESCAPES_BAD: Dict[str, str] = {
    "repro/server/seeded_fanout.py": textwrap.dedent(
        """
        import pickle

        class Dispatcher:
            def __init__(self):
                self.listeners = []
                self.progress = None

            def fire(self, event):
                for listener in self.listeners:
                    listener(event)       # listener may raise

            def drain(self, body):
                result = pickle.loads(body)
                if self.progress is not None:
                    self.progress(result)
                return result
        """),
}


def _analyze_snippet(analyzer: str, sources: Dict[str, str]) -> List[Finding]:
    """Run one static analyzer over an in-memory known-bad module."""
    return ANALYZERS[analyzer](load_source_table(sources))


#: kind -> callable returning the detections (empty == the checker went
#: blind).  The first four exercise the runtime checkers, the rest the
#: static analyzers of the same name.
SEEDED_FAULTS: Dict[str, Callable[[], Sequence[object]]] = {
    "race": seeded_race,
    "gc-unsafe": seeded_gc_unsafe,
    "dummy-chain": seeded_dummy_chain,
    "schedule": seeded_schedule,
    "locks": partial(_analyze_snippet, "locks", _LOCKS_BAD),
    "purity": partial(_analyze_snippet, "purity", _PURITY_BAD),
    "escapes": partial(_analyze_snippet, "escapes", _ESCAPES_BAD),
}

FAULT_KINDS = tuple(SEEDED_FAULTS)


def run_seeded_fault(kind: str) -> Sequence[object]:
    """Run one planted-fault scenario; returns its detections."""
    if kind not in SEEDED_FAULTS:
        raise ValueError(f"unknown seeded fault {kind!r}; "
                         f"choose from {FAULT_KINDS}")
    return SEEDED_FAULTS[kind]()
