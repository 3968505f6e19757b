"""Unit tests of recovery finalisation planned as a pure function
(:func:`repro.checkpoint.replay.plan_finalize`, paper section 4.3.2)."""

from repro.checkpoint.log import LogEntry, ProcessLog
from repro.checkpoint.replay import ObjectEdit, ReplayPlan, plan_finalize
from repro.memory.objects import ObjectDirectory, SharedObjectSpec
from repro.types import (
    AcquireType,
    Dependency,
    ExecutionPoint,
    ObjectStatus,
    Tid,
)

PID = 0
READER = Tid.of(PID, 0)
PRODUCER = Tid.of(PID, 1)


def plan(*, depend_lists=None, concurrent=False) -> ReplayPlan:
    return ReplayPlan(log_lists={}, depend_lists=depend_lists or {},
                      dummy_set=[], ckpt_lts={},
                      concurrent_recoveries=concurrent)


def directory_with(status: ObjectStatus, version: int = 3) -> ObjectDirectory:
    directory = ObjectDirectory(PID)
    obj = directory.declare(SharedObjectSpec("x", initial=0, home=1))
    obj.status, obj.version, obj.prob_owner = status, version, 1
    return directory


def test_concurrent_step_2b_keeps_step_2s_deferred_invalidation():
    """A READ copy in the InvalidSet, still held by a restored reader: step
    2 defers its invalidation with the ack owed to the next owner, and the
    concurrent-recoveries drop of step 2b must not replace that deferral
    with one that owes no ack."""
    directory = directory_with(ObjectStatus.READ)
    directory.get("x").local_readers.add(READER)
    edits = plan_finalize(plan(concurrent=True), ProcessLog(), directory, PID,
                          invalid_set={"x": 2}, revalidated={"x"})
    assert edits.objects == {"x": ObjectEdit(deferred=(2, 2, 3))}


def test_step_2b_drops_a_copy_replay_did_not_revalidate():
    directory = directory_with(ObjectStatus.READ)
    edits = plan_finalize(plan(), ProcessLog(), directory, PID,
                          invalid_set={}, revalidated=set())
    assert edits.objects == {"x": ObjectEdit()}


def test_a_write_dependency_on_our_last_entry_passes_ownership_on():
    """Step 1 attaches the survivor's pair and names it nextOwner; the
    owned object then leaves through the InvalidSet, and being dropped it
    gets no copySet edit."""
    log = ProcessLog(pid=PID)
    release = ExecutionPoint.of(PRODUCER, 4)
    entry = LogEntry("x", 3, "v3", PRODUCER, ep_release=release)
    log.append(entry)
    acquire = ExecutionPoint.of(Tid.of(2, 0), 7)
    dep = Dependency("x", AcquireType.WRITE, acquire, release, PID)
    stale = Dependency("x", AcquireType.READ, ExecutionPoint.of(Tid.of(1, 0), 2),
                       ExecutionPoint.of(PRODUCER, 1), PID)
    directory = directory_with(ObjectStatus.OWNED)
    edits = plan_finalize(plan(depend_lists={PRODUCER: [stale, dep]}), log,
                          directory, PID, invalid_set={}, revalidated=set())
    assert edits.stale == [stale]
    assert edits.pairs == [(entry, dep)]
    assert edits.next_owners == [(entry, acquire)]
    assert edits.objects == {"x": ObjectEdit(prob_owner=2)}
    assert edits.copy_sets == []
    assert entry.thread_set == [] and entry.next_owner is None
