"""Unit tests for the protocol invariant checker."""

import pytest

from repro.checkpoint.dummy import DummyEntry
from repro.checkpoint.gc import gc_thread_sets
from repro.checkpoint.log import LogEntry, ProcessLog
from repro.checkpoint.policy import CkpSet
from repro.errors import InvariantViolation
from repro.observers import Observers
from repro.sim.tracing import TraceLog
from repro.types import AcquireType, ExecutionPoint, Tid
from repro.verify.invariants import InvariantChecker
from repro.verify.seeded import (
    _mem,
    seeded_dummy_chain,
    seeded_gc_unsafe,
    seeded_race,
)


def make_entry(obj_id="x", version=1, pid=0, lt=3):
    producer = Tid(pid, 0)
    return LogEntry(obj_id=obj_id, version=version, obj_data=0,
                    tid_prd=producer,
                    ep_release=ExecutionPoint(producer, lt))


class TestLogMonotonicity:
    def test_increasing_versions_pass(self):
        checker = InvariantChecker(strict=False)
        for version in (1, 2, 5):
            checker.on_log_append(0, make_entry(version=version))
        assert checker.violations == []

    def test_repeated_version_flagged(self):
        checker = InvariantChecker(strict=False)
        checker.on_log_append(0, make_entry(version=3))
        checker.on_log_append(0, make_entry(version=3))
        assert [v.rule for v in checker.violations] == [
            "log-version-monotonic"]

    def test_regressing_version_flagged(self):
        checker = InvariantChecker(strict=False)
        checker.on_log_append(0, make_entry(version=5))
        checker.on_log_append(0, make_entry(version=2))
        assert [v.rule for v in checker.violations] == [
            "log-version-monotonic"]

    def test_processes_tracked_independently(self):
        checker = InvariantChecker(strict=False)
        checker.on_log_append(0, make_entry(version=5))
        checker.on_log_append(1, make_entry(version=1))
        assert checker.violations == []

    def test_restore_resets_one_process(self):
        checker = InvariantChecker(strict=False)
        checker.on_log_append(0, make_entry(version=5))
        checker.on_log_append(1, make_entry(version=5))
        checker.on_restore(0)
        checker.on_log_append(0, make_entry(version=1))  # fresh incarnation
        checker.on_log_append(1, make_entry(version=1))  # still the old one
        assert [v.rule for v in checker.violations] == [
            "log-version-monotonic"]

    def test_bound_log_stamps_pid_on_notifications(self):
        checker = InvariantChecker(strict=False)
        log = ProcessLog(Observers(checker), pid=3)
        log.append(make_entry(version=1))
        log.append(make_entry(version=2, lt=4))
        assert checker._log_heads[(3, "x")] == 2
        assert checker.violations == []


class TestGcSafety:
    def test_covered_drop_passes(self):
        log = ProcessLog()
        entry = make_entry()
        entry.add_access(ExecutionPoint(Tid(1, 0), 3),
                         ExecutionPoint(Tid(0, 0), 3))
        log.append(entry)
        checker = InvariantChecker(strict=False)
        ckp_set = CkpSet(pid=1, seq=1,
                         points=(ExecutionPoint(Tid(1, 0), 10),))
        checker.on_ckp_set(ckp_set)
        gc_thread_sets(log, ckp_set, observers=Observers(checker))
        assert checker.violations == []

    def test_forged_ckpset_flagged(self):
        violations = seeded_gc_unsafe()
        assert "gc-forged-ckpset" in [v.rule for v in violations]

    def test_floors_only_grow(self):
        checker = InvariantChecker(strict=False)
        tid = Tid(1, 0)
        checker.on_ckp_set(CkpSet(pid=1, seq=1,
                                  points=(ExecutionPoint(tid, 10),)))
        # A stale re-announcement must not lower the recorded floor.
        checker.on_ckp_set(CkpSet(pid=1, seq=2,
                                  points=(ExecutionPoint(tid, 4),)))
        assert checker._ckp_floors[1][tid] == 10

    def test_unannounced_pid_tolerated(self):
        # Cold restart: checkpoints can predate the checker entirely.
        log = ProcessLog()
        entry = make_entry()
        entry.add_access(ExecutionPoint(Tid(1, 0), 3),
                         ExecutionPoint(Tid(0, 0), 3))
        log.append(entry)
        checker = InvariantChecker(strict=False)
        gc_thread_sets(log,
                       CkpSet(pid=1, seq=1,
                              points=(ExecutionPoint(Tid(1, 0), 10),)),
                       observers=Observers(checker))
        assert checker.violations == []


class TestDummyCoverage:
    def test_broken_chain_flagged(self):
        violations = seeded_dummy_chain()
        assert [v.rule for v in violations] == ["dummy-coverage"]
        assert violations[0].trace_slice  # pointed trace slice attached

    @staticmethod
    def local_acquire(checker, lt, trace=None, **extra):
        _mem(Observers(checker), trace or TraceLog(enabled=True), float(lt),
             "acquire", Tid(2, 0), lt, "y", "R", local=True, **extra)

    @pytest.mark.parametrize("dummy_first", [False, True])
    def test_covered_acquires_pass(self, dummy_first):
        checker = InvariantChecker(strict=False)
        dummy = DummyEntry(obj_id="y", ep_acq=ExecutionPoint(Tid(2, 0), 4),
                           local_dep=None, type=AcquireType.READ)
        if dummy_first:
            checker.on_dummy_created(2, dummy)
        self.local_acquire(checker, 4)
        if not dummy_first:
            checker.on_dummy_created(2, dummy)
        checker.check_dummy_coverage()
        assert checker.violations == []

    def test_replayed_acquires_are_exempt(self):
        checker = InvariantChecker(strict=False)
        self.local_acquire(checker, 4, replayed=True)
        checker.check_dummy_coverage()
        assert checker.violations == []

    def test_pid_filter_skips_baseline_processes(self):
        checker = InvariantChecker(strict=False)
        self.local_acquire(checker, 4)
        checker.check_dummy_coverage(pids={0, 1})
        assert checker.violations == []

    def test_gap_is_reported_once_and_outlives_the_trace_ring(self):
        trace = TraceLog(enabled=True, max_records=2)
        checker = InvariantChecker(trace=trace, strict=False)
        self.local_acquire(checker, 4, trace=trace)
        for lt in range(5, 9):  # push the acquire's own row out of the ring
            trace.emit(float(lt), "proto", "filler")
        assert trace.dropped
        checker.check_dummy_coverage()
        checker.check_dummy_coverage()
        assert [v.rule for v in checker.violations] == ["dummy-coverage"]


class TestStrictMode:
    def test_strict_raises_with_slice(self):
        trace = TraceLog(enabled=True)
        trace.emit(1.0, "proto", "context record")
        checker = InvariantChecker(trace=trace, strict=True)
        checker.on_log_append(0, make_entry(version=2))
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_log_append(0, make_entry(version=2))
        assert excinfo.value.rule == "log-version-monotonic"
        assert excinfo.value.trace_slice


class TestSeededFaultsAreDetected:
    def test_race(self):
        assert len(seeded_race()) == 1

    def test_gc_unsafe(self):
        assert len(seeded_gc_unsafe()) >= 1

    def test_dummy_chain(self):
        assert len(seeded_dummy_chain()) == 1
