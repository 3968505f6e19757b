"""Property-based tests of recovery finalisation (paper section 4.3.2).

Hypothesis generates small restored states of a recovering process P0 --
a volatile log and object directory over two objects, two or three
processes, at most six log entries -- with the DependLists, InvalidSet
and DummySet replay would hand over, and runs :func:`plan_finalize` on
them, with no simulator.  Each closing step is checked on the edits:

* step 1: every live DependList pair lands in exactly one threadSet, the
  one :func:`entry_for_dependency` names; stale pairs are reported;
* steps 2 / 2b: an InvalidSet object a restored reader still holds keeps
  its deferred invalidation, with the ack owed to the next owner;
* steps 3+4: every holder that any entry of an owned object names is in
  its copySet, and only readers of the last version escape invalidation;
* step 5: no two dummies share ``(obj_id, ep_acq)``.
"""

from __future__ import annotations

import copy
import itertools

from hypothesis import given, settings, strategies as st

from repro.checkpoint.log import LogEntry, ProcessLog, pseudo_tid
from repro.checkpoint.replay import ReplayPlan, entry_for_dependency, plan_finalize
from repro.memory.objects import ObjectDirectory, SharedObjectSpec
from repro.types import (
    AcquireType,
    Dependency,
    ExecutionPoint,
    ObjectStatus,
    Tid,
)

PID = 0
OBJECTS = ("a", "b")
PRODUCERS = (Tid.of(PID, 0), Tid.of(PID, 1), pseudo_tid(PID))
objects = st.sampled_from(OBJECTS)
producers = st.sampled_from(PRODUCERS)
acquire_types = st.sampled_from(AcquireType)


@st.composite
def finalize_inputs(draw):
    """``(plan, log, directory, invalid_set, revalidated)`` at P0."""
    pids = st.sampled_from(range(draw(st.integers(2, 3))))
    peers = pids.filter(lambda pid: pid != PID)
    releases = itertools.count(1)
    acquires = itertools.count(1)
    log = ProcessLog(pid=PID)
    directory = ObjectDirectory(PID)
    budget = 6
    for obj_id in OBJECTS:
        obj = directory.declare(
            SharedObjectSpec(obj_id, initial=0, home=draw(pids)))
        version = 0
        for _ in range(draw(st.integers(0, budget))):
            budget -= 1
            version += draw(st.integers(1, 2))
            producer = draw(producers)
            entry = LogEntry(
                obj_id, version, version, producer,
                ep_release=ExecutionPoint.of(producer, next(releases)),
                copy_set_at_grant=draw(st.none() | st.frozensets(pids)))
            for _ in range(draw(st.integers(0, 2))):
                reader = Tid.of(draw(peers), 0)
                entry.add_access(ExecutionPoint.of(reader, next(acquires)),
                                 entry.ep_release)
            log.append(entry)
        obj.status = draw(st.sampled_from(ObjectStatus))
        obj.version = draw(st.just(version) | st.integers(0, version + 1))
        obj.copy_set = draw(st.sets(pids))
        obj.prob_owner = draw(pids)
        if draw(st.booleans()):
            obj.local_readers = {PRODUCERS[0]}
        if draw(st.booleans()):
            obj.local_writer = PRODUCERS[1]

    depend_lists: dict = {}
    for _ in range(draw(st.integers(0, 5))):
        producer = draw(producers)
        dep = Dependency(
            draw(objects), draw(acquire_types),
            ExecutionPoint.of(Tid.of(draw(peers), 0), next(acquires)),
            ExecutionPoint.of(producer, draw(st.integers(0, 8))), PID)
        entry = entry_for_dependency(log, dep)
        if entry is not None and draw(st.booleans()):
            # Granted before the checkpoint: the pair is restored already.
            entry.add_access(dep.ep_acq, dep.ep_prd)
        for _ in range(draw(st.integers(1, 2))):
            depend_lists.setdefault(producer, []).append(dep)

    dummy_set = [
        Dependency(draw(objects), draw(acquire_types),
                   ExecutionPoint.of(Tid.of(draw(peers), 0), draw(st.integers(1, 3))),
                   ExecutionPoint.of(Tid.of(draw(peers), 0), 0), PID, local=True)
        for _ in range(draw(st.integers(0, 4)))]
    plan = ReplayPlan(log_lists={}, depend_lists=depend_lists,
                      dummy_set=dummy_set, ckpt_lts={},
                      concurrent_recoveries=draw(st.booleans()))
    invalid_set = draw(st.dictionaries(objects, peers))
    revalidated = draw(st.sets(objects))
    return plan, log, directory, invalid_set, revalidated


def finalize(inputs):
    plan, log, directory, invalid_set, revalidated = inputs
    return plan_finalize(plan, log, directory, PID, invalid_set, revalidated)


def attached(edits, entry) -> list:
    """Acquire points ``entry``'s threadSet holds once the edits are made."""
    return ([pair.ep_acq for pair in entry.thread_set]
            + [dep.ep_acq for target, dep in edits.pairs if target is entry])


def state(log, directory):
    return ([(entry.obj_id, entry.version, list(entry.thread_set),
              entry.next_owner, entry.next_owner_ep) for entry in log],
            directory.snapshot(),
            [obj.pending_invalidate_from for obj in directory])


SETTINGS = settings(max_examples=100, deadline=None)


@SETTINGS
@given(finalize_inputs())
def test_planning_changes_neither_log_nor_directory(inputs):
    _, log, directory, _, _ = inputs
    before = copy.deepcopy(state(log, directory))
    finalize(inputs)
    assert state(log, directory) == before


@SETTINGS
@given(finalize_inputs())
def test_step_1_every_live_pair_lands_in_exactly_one_thread_set(inputs):
    plan, log, _, _, _ = inputs
    edits = finalize(inputs)
    stale = []
    for tid in sorted(plan.depend_lists):
        for dep in plan.depend_lists[tid]:
            entry = entry_for_dependency(log, dep)
            if entry is None:
                stale.append(dep)
                continue
            holders = [held for held in log
                       if dep.ep_acq in attached(edits, held)]
            assert holders == [entry]
            assert attached(edits, entry).count(dep.ep_acq) == 1
    assert edits.stale == stale


@SETTINGS
@given(finalize_inputs())
def test_step_2_keeps_the_ack_a_restored_reader_owes(inputs):
    _, _, directory, invalid_set, _ = inputs
    edits = finalize(inputs)
    for obj_id, next_owner in invalid_set.items():
        if directory.get(obj_id).local_readers:
            deferred = edits.objects[obj_id].deferred
            assert deferred is not None and deferred[1] is not None


@SETTINGS
@given(finalize_inputs())
def test_steps_3_4_every_named_holder_is_kept_or_invalidated(inputs):
    _, log, directory, _, _ = inputs
    edits = finalize(inputs)
    reconciled = {obj_id: (copy_set, targets)
                  for obj_id, copy_set, targets in edits.copy_sets}
    for obj in directory:
        edit = edits.objects.get(obj.obj_id)
        dropped = edit is not None and edit.deferred is None
        if obj.status is not ObjectStatus.OWNED or dropped:
            assert obj.obj_id not in reconciled
            continue
        copy_set, targets = reconciled[obj.obj_id]
        entries = log.entries_for(obj.obj_id)
        holders = set(obj.copy_set)
        for entry in entries:
            holders |= entry.copy_holders(PID)
            holders |= {ep.tid.pid for ep in attached(edits, entry)}
        assert holders - {PID} <= copy_set
        last_readers = set()
        if (entries and obj.local_writer is None
                and entries[-1].version == obj.version):
            last_readers = {ep.tid.pid for ep in attached(edits, entries[-1])}
        assert copy_set - targets <= last_readers


@SETTINGS
@given(finalize_inputs())
def test_step_5_no_two_dummies_share_an_acquire(inputs):
    plan = inputs[0]
    edits = finalize(inputs)
    keys = [(dummy.obj_id, dummy.ep_acq) for dummy in edits.dummies]
    assert len(keys) == len(set(keys))
    assert set(keys) == {(dep.obj_id, dep.ep_acq) for dep in plan.dummy_set}
