"""Unit tests for garbage collection (paper section 4.4)."""

import random

from repro.checkpoint.dummy import DummyLog, DummyEntry
from repro.checkpoint.gc import (
    gc_dep_sets,
    gc_dummy_log,
    gc_own_local_deps,
    gc_thread_sets,
)
from repro.checkpoint.log import LogEntry, ProcessLog
from repro.checkpoint.policy import CkpSet
from repro.threads.program import Program
from repro.threads.thread import Thread
from repro.types import AcquireType, Dependency, Tid, ep


def ckp_set(pid=1, lt=5) -> CkpSet:
    return CkpSet(pid=pid, seq=1, points=(ep(pid, 0, lt),))


def make_thread(tid=Tid(0, 0)) -> Thread:
    def body(ctx):
        yield from ()

    return Thread(tid, Program("t", body, {}), lambda fresh: random.Random(0))


class TestGcThreadSets:
    def _log(self) -> ProcessLog:
        log = ProcessLog()
        old = LogEntry("x", 0, "d0", Tid(0, 0), ep_release=ep(0, 0, 1))
        old.add_access(ep(1, 0, 3), ep(0, 0, 1))   # before ckpt (lt 5)
        old.add_access(ep(1, 0, 8), ep(0, 0, 1))   # after ckpt
        last = LogEntry("x", 1, "d1", Tid(0, 0), ep_release=ep(0, 0, 2))
        last.add_access(ep(1, 0, 4), ep(0, 0, 2))  # before ckpt
        log.append(old)
        log.append(last)
        return log

    def test_pairs_before_checkpoint_removed(self):
        log = self._log()
        pairs, entries = gc_thread_sets(log, ckp_set(pid=1, lt=5))
        assert pairs == 2
        assert entries == 0  # old entry still referenced by the lt-8 pair
        assert [p.ep_acq.lt for p in log.entries_for("x")[0].thread_set] == [8]

    def test_empty_old_entry_deleted(self):
        log = self._log()
        pairs, entries = gc_thread_sets(log, ckp_set(pid=1, lt=10))
        assert pairs == 3
        assert entries == 1
        assert [e.version for e in log] == [1]  # last version survives

    def test_other_processes_pairs_untouched(self):
        log = ProcessLog()
        e = LogEntry("x", 0, "d", Tid(0, 0), ep_release=ep(0, 0, 1))
        e.add_access(ep(2, 0, 1), ep(0, 0, 1))
        log.append(e)
        pairs, _ = gc_thread_sets(log, ckp_set(pid=1, lt=99))
        assert pairs == 0
        assert len(e.thread_set) == 1


class TestGcDummyLog:
    def test_before_checkpoint_removed(self):
        log = DummyLog(0)
        log.store(DummyEntry("x", ep(1, 0, 2), ep(1, 0, 1), type=AcquireType.READ))
        log.store(DummyEntry("x", ep(1, 0, 7), ep(1, 0, 6), type=AcquireType.READ))
        assert gc_dummy_log(log, ckp_set(pid=1, lt=5)) == 1
        assert [e.ep_acq.lt for e in log] == [7]


class TestGcDepSets:
    def test_dep_before_producer_checkpoint_removed(self):
        thread = make_thread()
        thread.dep_set = [
            Dependency("x", AcquireType.READ, ep(0, 0, 1), ep(1, 0, 2), 1),
            Dependency("x", AcquireType.READ, ep(0, 0, 2), ep(1, 0, 8), 1),
            Dependency("y", AcquireType.READ, ep(0, 0, 3), ep(2, 0, 2), 2),
        ]
        removed = gc_dep_sets([thread], ckp_set(pid=1, lt=5))
        assert removed == 1
        assert len(thread.dep_set) == 2
        assert all(d.ep_prd.lt != 2 or d.ep_prd.tid.pid != 1
                   for d in thread.dep_set)

    def test_pseudo_producer_never_gcd_by_broadcast(self):
        thread = make_thread()
        thread.dep_set = [
            Dependency("x", AcquireType.READ, ep(0, 0, 1), ep(1, -1, 0), 1),
        ]
        assert gc_dep_sets([thread], ckp_set(pid=1, lt=99)) == 0


class TestGcOwnLocalDeps:
    def test_local_deps_before_own_checkpoint_removed(self):
        thread = make_thread()
        thread.dep_set = [
            Dependency("x", AcquireType.READ, ep(0, 0, 2), ep(0, 0, 1), 0, local=True),
            Dependency("x", AcquireType.READ, ep(0, 0, 9), ep(0, 0, 8), 0, local=True),
            Dependency("y", AcquireType.READ, ep(0, 0, 3), ep(1, 0, 2), 1),
        ]
        removed = gc_own_local_deps([thread], {Tid(0, 0): 5})
        assert removed == 1
        # Remote deps and post-checkpoint local deps survive.
        assert len(thread.dep_set) == 2


class _Recorder:
    """Observer that records every GC drop, in call order."""

    def __init__(self):
        self.calls = []

    def on_gc_pair_drop(self, entry, pair, ckp_set):
        self.calls.append(("pair", entry.obj_id, entry.version, pair))

    def on_gc_dummy_drop(self, dummy, ckp_set):
        self.calls.append(("dummy", dummy))

    def on_gc_dep_drop(self, tid, dep, ckp_set):
        self.calls.append(("dep", tid, dep))


class TestGcMatchesTheNaiveRule:
    """GC skips other processes' items before the floor lookup; the result
    must be exactly section 4.4's rule applied item by item."""

    PIDS = (0, 1, 2, 3)

    @staticmethod
    def naive_drop(point, ckp_set) -> bool:
        return any(p.tid == point.tid and point.lt < p.lt
                   for p in ckp_set.points)

    def random_point(self, rng):
        pid = rng.choice(self.PIDS)
        return ep(pid, rng.choice((-1, 0, 1, 2)), rng.randrange(12))

    def build(self, seed):
        rng = random.Random(seed)
        log = ProcessLog()
        for obj in ("x", "y", "z"):
            for version in range(rng.randrange(1, 4)):
                entry = LogEntry(obj, version, [version], Tid(0, 0),
                                 ep_release=ep(0, 0, version))
                for _ in range(rng.randrange(4)):
                    entry.add_access(self.random_point(rng), ep(0, 0, 1))
                log.append(entry)
        dummies = DummyLog(0)
        for _ in range(rng.randrange(8)):
            dummies.store(DummyEntry(rng.choice("xyz"), self.random_point(rng),
                                     None))
        threads = [make_thread(Tid(0, local)) for local in range(2)]
        for thread in threads:
            thread.dep_set = [
                Dependency("x", AcquireType.READ, ep(0, 0, 1),
                           self.random_point(rng), 1)
                for _ in range(rng.randrange(6))
            ]
        ckp_set = CkpSet(pid=1, seq=1, points=(
            ep(1, 0, rng.randrange(12)), ep(1, 1, rng.randrange(12))))
        return log, dummies, threads, ckp_set

    def expected(self, log, dummies, threads, ckp_set):
        calls, kept_pairs = [], {}
        for entry in log:
            kept_pairs[entry.obj_id, entry.version] = []
            for pair in entry.thread_set:
                if self.naive_drop(pair.ep_acq, ckp_set):
                    calls.append(("pair", entry.obj_id, entry.version, pair))
                else:
                    kept_pairs[entry.obj_id, entry.version].append(pair)
        last = {entry.obj_id: entry.version for entry in log}
        survivors = [key for key, pairs in kept_pairs.items()
                     if pairs or last[key[0]] == key[1]]
        kept_dummies = []
        for dummy in dummies:
            if self.naive_drop(dummy.ep_acq, ckp_set):
                calls.append(("dummy", dummy))
            else:
                kept_dummies.append(dummy)
        kept_deps = []
        for thread in threads:
            kept_deps.append([])
            for dep in thread.dep_set:
                if self.naive_drop(dep.ep_prd, ckp_set):
                    calls.append(("dep", thread.tid, dep))
                else:
                    kept_deps[-1].append(dep)
        counts = (sum(call[0] == "pair" for call in calls),
                  len(kept_pairs) - len(survivors),
                  sum(call[0] == "dummy" for call in calls),
                  sum(call[0] == "dep" for call in calls))
        trimmed = ([(key, kept_pairs[key]) for key in survivors],
                   kept_dummies, kept_deps)
        return counts, trimmed, calls

    def test_structures_counts_and_observer_order(self):
        dropped_any = 0
        for seed in range(300):
            log, dummies, threads, ckp_set = self.build(seed)
            counts, trimmed, calls = self.expected(log, dummies, threads,
                                                   ckp_set)
            recorder = _Recorder()
            pairs, entries = gc_thread_sets(log, ckp_set, observers=recorder)
            dummy_count = gc_dummy_log(dummies, ckp_set, observers=recorder)
            deps = gc_dep_sets(threads, ckp_set, observers=recorder)
            assert (pairs, entries, dummy_count, deps) == counts, seed
            assert ([((e.obj_id, e.version), e.thread_set) for e in log],
                    list(dummies), [t.dep_set for t in threads]) == trimmed
            assert recorder.calls == calls, seed
            dropped_any += bool(calls)
        assert dropped_any > 100  # the seeds exercise the drop paths
