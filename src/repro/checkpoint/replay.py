"""Log replay (paper section 4.3.2).

Recovering threads re-execute their programs from the restored checkpoint.
Their acquires are trapped: instead of the normal acquire algorithm, the
thread obtains object versions locally from its ``LogList`` -- regular
entries carry the logged data; dummy entries re-order local acquires --
without exchanging any messages.

Ordering gates, straight from the paper plus the CREW discipline the
original execution obeyed:

* a regular entry for version ``v`` waits until all logged acquires of
  *earlier* versions of the object (by any recovering thread) are done,
  and a write additionally waits for the logged *read* acquires of ``v``
  itself (they preceded the write in the original execution);
* a dummy entry waits until the local event named by its ``localDep`` is
  reproduced -- operationally, until the object's ``epDep`` equals it;
* an acquire of either kind waits until the local CREW state admits it.

On completion :func:`plan_finalize` computes the paper's reconstruction
steps from the restored log and directory -- DependList pairs attached to
(re-)created log entries, the InvalidSet's ``probOwner``/``status`` edits,
copySets recovered from threadSets with invalidations for stale readers,
the failed process's dummy entries -- and :meth:`LogReplayer.finalize`
makes them on the process.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.checkpoint.dummy import DummyEntry
from repro.checkpoint.log import LogEntry, ProcessLog, is_pseudo
from repro.errors import ProtocolError
from repro.memory.objects import ObjectDirectory
from repro.threads.thread import Thread, ThreadState, snapshot
from repro.types import (
    AcquireType,
    Dependency,
    ExecutionPoint,
    ObjectId,
    ObjectStatus,
    ProcessId,
    Tid,
)


@dataclass(frozen=True)
class RegularLogElement:
    """A LogSet element: one logged version acquired by a recovering thread.

    Carries the full entry (data, threadSet, nextOwner) plus the specific
    ``<ep_acq, ep_prd>`` pair that put it in the set, and the identity of
    the process where the version was produced (the sender).
    """

    entry: LogEntry
    ep_acq: ExecutionPoint
    ep_prd: ExecutionPoint
    produced_in: ProcessId

    @property
    def lt(self) -> int:
        return self.ep_acq.lt

    @property
    def obj_id(self) -> ObjectId:
        return self.entry.obj_id

    @property
    def version(self) -> int:
        return self.entry.version

    @property
    def is_write(self) -> bool:
        """Is *this* acquire (not merely some thread of this process) the
        one that took ownership of the version?  Several threads of one
        process may appear in one version's threadSet."""
        return self.entry.next_owner_ep == self.ep_acq


#: One LogList element: a regular or a dummy logged acquire.
LogItem = Union[RegularLogElement, DummyEntry]


@dataclass
class ReplayPlan:
    """Everything the replayer needs, built by the RecoveryManager."""

    log_lists: dict[Tid, list[LogItem]]
    depend_lists: dict[Tid, list[Dependency]]
    dummy_set: list[Dependency]
    #: Logical time of each thread at the checkpoint: events at or before
    #: these are considered already reproduced (they are inside the
    #: restored state).
    ckpt_lts: dict[Tid, int]
    #: True when a reply came from a process that is itself recovering:
    #: replay knowledge derived from its *checkpoint-state* log (nextOwner,
    #: copySets) may miss post-checkpoint events, so cached read copies
    #: cannot be trusted at all.
    concurrent_recoveries: bool


class LogReplayer:
    """Serves recovering threads' acquires from the LogLists."""

    def __init__(self, process: Any, plan: ReplayPlan,
                 on_finished: Callable[[], None]) -> None:
        self.process = process
        self.plan = plan
        self.on_finished = on_finished
        self._finished = False
        #: Threads whose head item is gated: tid -> (thread, syscall).
        self._waiting: dict[Tid, tuple[Thread, Any]] = {}
        #: Pending (unconsumed) regular items per object:
        #: Counter[(version, is_write)].
        self._pending: dict[ObjectId, Counter] = {}
        #: InvalidSet (section 4.3.2 step 3): obj -> nextOwner.
        self.invalid_set: dict[ObjectId, ProcessId] = {}
        #: Objects whose currency was re-established by a regular replay
        #: item (their staleness is precisely tracked via nextOwner).
        self._revalidated: set[ObjectId] = set()
        #: Local events reproduced so far, per object: acquire and release
        #: execution points.  A dummy's localDep gate checks membership
        #: here (plus the checkpoint pre-seed), never transient equality
        #: of the object's epDep -- other threads may legally advance it.
        self._events: dict[ObjectId, set[ExecutionPoint]] = {}
        for items in plan.log_lists.values():
            for item in items:
                if isinstance(item, RegularLogElement):
                    self._pending.setdefault(item.obj_id, Counter())[
                        (item.version, item.is_write)
                    ] += 1
        # Block normal-mode acquires of objects that replay still owes.
        blocked = {item.obj_id for items in plan.log_lists.values() for item in items}
        process.engine.blocked_objects |= blocked

    # ------------------------------------------------------------------
    # routing predicates
    # ------------------------------------------------------------------
    def wants(self, thread: Thread) -> bool:
        return bool(self.plan.log_lists.get(thread.tid))

    # ------------------------------------------------------------------
    # acquire handling
    # ------------------------------------------------------------------
    def handle_acquire(self, thread: Thread, syscall: Any) -> None:
        items = self.plan.log_lists[thread.tid]
        item = items[0]
        thread.state = ThreadState.WAIT_REPLAY
        if self._gate_open(thread, syscall, item):
            self._apply(thread, syscall, item)
        else:
            self._waiting[thread.tid] = (thread, syscall)

    def _dep_reproduced(self, obj_id: ObjectId, dep: Optional[ExecutionPoint]) -> bool:
        """Has the local event named by a dummy's ``localDep`` happened?

        True for pseudo events (object creation), events covered by the
        restored checkpoint, and events reproduced during this replay.
        """
        if dep is None or is_pseudo(dep.tid):
            return True
        ckpt_lt = self.plan.ckpt_lts.get(dep.tid)
        if ckpt_lt is not None and dep.lt <= ckpt_lt:
            return True
        return dep in self._events.get(obj_id, ())

    def _claimants(self, obj_id: ObjectId) -> list[tuple]:
        """Unconsumed dummy items on ``obj_id`` whose localDep is already
        reproduced: the next local events of the original order.  While
        any exist, no other replay install may touch the object (it would
        steal the state the dummy must observe)."""
        out = []
        for tid, items in self.plan.log_lists.items():
            for item in items:
                if item.obj_id != obj_id:
                    continue
                # Only a thread's earliest unconsumed item on the object
                # can be the object's next local event.
                if isinstance(item, DummyEntry) and self._dep_reproduced(
                    obj_id, item.local_dep
                ):
                    priority = (0 if item.type.is_read else 1,
                                item.lt, tid.local)
                    out.append((priority, tid))
                break
        return sorted(out)

    def _gate_open(self, thread: Thread, syscall: Any, item: LogItem) -> bool:
        obj = self.process.directory.get(item.obj_id)
        acq_type: AcquireType = syscall.type
        if not obj.can_grant_locally(acq_type):
            return False
        claimants = self._claimants(item.obj_id)
        if isinstance(item, DummyEntry):
            if not self._dep_reproduced(item.obj_id, item.local_dep):
                return False
            # Among ready dummies, only the chain-first may proceed.
            if claimants and claimants[0][1] != thread.tid:
                return False
            return True
        if claimants:
            # A ready dummy owns the object's next local event; installing
            # a regular version now would overwrite the state it must see.
            return False
        # Regular entry: wait for all earlier versions (and, for a write,
        # the same-version reads) to be re-acquired.
        version = item.version
        pending = self._pending.get(item.obj_id, Counter())
        for (v, is_write), count in pending.items():
            if count <= 0:
                continue
            if v < version:
                return False
            if v == version and acq_type.is_write and not is_write:
                return False
        return True

    def _apply(self, thread: Thread, syscall: Any, item: LogItem) -> None:
        process = self.process
        obj = process.directory.get(item.obj_id)
        acq_type: AcquireType = syscall.type
        thread.check_can_acquire(item.obj_id)
        thread.tick()
        thread.acquire_pending = True
        ep_acq = thread.current_ep()
        if ep_acq.lt != item.lt:
            raise ProtocolError(
                f"{thread.tid}: replay divergence -- program acquires at "
                f"lt {ep_acq.lt} but LogList expects lt {item.lt}"
            )
        if item.obj_id != syscall.obj_id:
            raise ProtocolError(
                f"{thread.tid}: replay divergence -- program acquires "
                f"{syscall.obj_id!r} but LogList has {item.obj_id!r}"
            )
        items = self.plan.log_lists[thread.tid]
        items.pop(0)
        self._waiting.pop(thread.tid, None)

        if isinstance(item, RegularLogElement):
            entry = item.entry
            self._pending[item.obj_id][(item.version, item.is_write)] -= 1
            obj.data = entry.data_copy()
            obj.version = entry.version
            if acq_type.is_write:
                obj.status = ObjectStatus.OWNED
                obj.prob_owner = process.pid
                obj.copy_set = entry.copy_holders(process.pid)
                # Acquire records stay where the acquires were granted:
                # ours is a bare ownership entry without a threadSet.
                process.checkpoint_protocol.log.owner_entry(obj)
            else:
                obj.status = ObjectStatus.READ
                obj.prob_owner = item.produced_in
            # Section 4.3.2 step 3: InvalidSet maintenance.
            if entry.next_owner is None or entry.next_owner == process.pid:
                self.invalid_set.pop(item.obj_id, None)
            else:
                self.invalid_set[item.obj_id] = entry.next_owner
            self._revalidated.add(item.obj_id)
            # Step 2: record the dependency.
            thread.dep_set.append(
                Dependency(item.obj_id, acq_type, ep_acq, item.ep_prd,
                           item.produced_in)
            )
        else:
            if item.type is not acq_type:
                raise ProtocolError(
                    f"{thread.tid}: replay divergence -- acquire type "
                    f"{acq_type} vs dummy-logged {item.type}"
                )
            # Local acquire: the (reconstructed) local copy is the value;
            # note that no dummy entries are created during recovery.
            thread.dep_set.append(
                Dependency(item.obj_id, acq_type, ep_acq, item.local_dep,
                           item.p_log, local=True)
            )

        obj.ep_dep = ep_acq
        self._events.setdefault(item.obj_id, set()).add(ep_acq)
        obj.note_held(thread.tid, acq_type)
        value = snapshot(obj.data)
        thread.note_acquired(item.obj_id, acq_type, value)
        thread.wait_obj = None
        process.engine.emit_mem_event("acquire", thread.tid, ep_acq.lt, obj,
                                      acq_type, local=isinstance(item, DummyEntry),
                                      replayed=True)
        process.metrics.replayed_acquires += 1
        process.scheduler.complete(thread, value)
        self.process.kernel.call_soon(self.after_event, label="replay-poke")

    def note_release(self, thread: Thread, obj_id: ObjectId) -> None:
        """A release executed during recovery: it is a local event on the
        object (it updates epDep at the owner) and may be the ``localDep``
        a dummy is waiting for."""
        self._events.setdefault(obj_id, set()).add(thread.current_ep())

    # ------------------------------------------------------------------
    # progress / completion
    # ------------------------------------------------------------------
    def after_event(self) -> None:
        """Re-evaluate gates; called after every replay-relevant event."""
        if self._finished:
            return
        progressed = True
        while progressed:
            progressed = False
            for tid in sorted(self._waiting):
                thread, syscall = self._waiting[tid]
                items = self.plan.log_lists[tid]
                if not items:
                    del self._waiting[tid]
                    continue
                item = items[0]
                if self._gate_open(thread, syscall, item):
                    self._apply(thread, syscall, item)
                    progressed = True
                    break
        self._release_drained_barriers()
        self._maybe_finish()

    def _release_drained_barriers(self) -> None:
        engine = self.process.engine
        still_owed = {item.obj_id for items in self.plan.log_lists.values()
                      for item in items}
        for obj_id in list(engine.blocked_objects):
            if obj_id not in still_owed:
                engine.release_barrier(obj_id)

    def _maybe_finish(self) -> None:
        if self._finished:
            return
        if any(self.plan.log_lists.values()):
            return
        # All lists consumed; wait until every thread has run up to its
        # next acquire (or finished), so all post-prefix releases -- which
        # re-create log entries -- have executed.
        engine = self.process.engine
        held_threads = {t.tid for t, _ in engine._held_acquires}
        for tid, thread in self.process.threads.items():
            if thread.done or tid in held_threads:
                continue
            return
        self._finished = True
        self.on_finished()

    # ------------------------------------------------------------------
    # finalization (section 4.3.2, closing paragraphs)
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Make :func:`plan_finalize`'s edits, the only finalisation code
        that changes the process, sends or traces."""
        process = self.process
        protocol = process.checkpoint_protocol
        edits = plan_finalize(self.plan, protocol.log, process.directory,
                              process.pid, self.invalid_set, self._revalidated)
        for dep in edits.stale:
            process.kernel.trace.emit(
                process.kernel.now, "recovery",
                f"P{process.pid}: skipping stale dependency {dep}",
            )
        for entry, dep in edits.pairs:
            entry.add_access(dep.ep_acq, dep.ep_prd)
        for entry, ep_acq in edits.next_owners:
            entry.next_owner = ep_acq.tid.pid
            entry.next_owner_ep = ep_acq
        for obj_id, edit in edits.objects.items():
            obj = process.directory.get(obj_id)
            if edit.deferred is not None:
                obj.pending_invalidate_from = edit.deferred
                continue
            obj.status = ObjectStatus.NO_ACCESS
            obj.data = None
            if edit.prob_owner is not None:
                obj.prob_owner = edit.prob_owner
                obj.copy_set = set()
        for obj_id, copy_set, targets in edits.copy_sets:
            obj = process.directory.get(obj_id)
            obj.copy_set = copy_set  # targets leave as they ack
            if targets:
                process.engine._send_invalidations(obj, targets)
        for dummy in edits.dummies:
            protocol.dummy_log.store(dummy)


@dataclass(frozen=True)
class ObjectEdit:
    """Steps 2 / 2b's one edit of a directory object: drop its copy, or
    defer the drop to the release of the restored thread holding it."""

    #: ``pending_invalidate_from`` to set instead of dropping the copy.
    deferred: Optional[tuple[ProcessId, Optional[ProcessId], int]] = None
    #: An InvalidSet drop's new probOwner (the copySet empties too).
    prob_owner: Optional[ProcessId] = None


@dataclass
class FinalizeEdits:
    """What section 4.3.2's closing steps change, in the order made."""

    #: Step 1: DependList pairs whose entry was garbage-collected.
    stale: list[Dependency] = field(default_factory=list)
    #: Step 1: DependList pairs to add to a threadSet.
    pairs: list[tuple[LogEntry, Dependency]] = field(default_factory=list)
    #: Step 1: a write acquirer becomes the entry's nextOwner (last wins).
    next_owners: list[tuple[LogEntry, ExecutionPoint]] = field(default_factory=list)
    #: Steps 2 / 2b: at most one edit per object.
    objects: dict[ObjectId, ObjectEdit] = field(default_factory=dict)
    #: Steps 3+4: ``(obj_id, copySet, invalidation targets)`` per owned object.
    copy_sets: list[tuple[ObjectId, set[ProcessId], set[ProcessId]]] = field(
        default_factory=list)
    #: Step 5: the failed process's dummy entries, one per ``(obj_id, ep_acq)``.
    dummies: list[DummyEntry] = field(default_factory=list)


def plan_finalize(plan: ReplayPlan, log: ProcessLog, directory: ObjectDirectory,
                  pid: ProcessId, invalid_set: dict[ObjectId, ProcessId],
                  revalidated: set[ObjectId]) -> FinalizeEdits:
    """Plan section 4.3.2's reconstruction at process ``pid`` from what it
    received and replayed: ``invalid_set`` maps an object to the nextOwner
    of the version replay last installed, ``revalidated`` holds the objects
    replay re-installed.  Reads ``log`` and ``directory``, changes neither.
    """
    edits = FinalizeEdits()
    invalid = dict(invalid_set)
    # Step 1: threadSets / nextOwner of (re-)created entries from the
    # DependLists; ``attached`` holds the acquirers added per entry.
    attached: dict[tuple[ObjectId, int], set[ExecutionPoint]] = {}
    for tid in sorted(plan.depend_lists):
        for dep in plan.depend_lists[tid]:
            entry = entry_for_dependency(log, dep)
            if entry is None:
                # GC drops a pair only once the acquirer's own checkpoint
                # covers the acquire: no one's recovery needs it (its
                # dep-set GC announcement had not reached the sender yet).
                edits.stale.append(dep)
                continue
            added = attached.setdefault((entry.obj_id, entry.version), set())
            if dep.ep_acq not in added and not any(
                    pair.ep_acq == dep.ep_acq for pair in entry.thread_set):
                added.add(dep.ep_acq)
                edits.pairs.append((entry, dep))
            if dep.type.is_write:
                edits.next_owners.append((entry, dep.ep_acq))
                obj = directory.get(dep.obj_id)
                if (log.last_entry(dep.obj_id) is entry
                        and obj.status is ObjectStatus.OWNED
                        and obj.version <= entry.version):
                    # Ownership left before the crash and our copy is not
                    # newer: the object must be invalidated.
                    invalid[dep.obj_id] = dep.ep_acq.tid.pid

    def acquirers(entry: LogEntry) -> set[ProcessId]:
        """``entry``'s threadSet acquirers but ``pid``, step 1's included."""
        planned = attached.get((entry.obj_id, entry.version), set())
        return ({ep.tid.pid for ep in planned}
                | {pair.ep_acq.tid.pid for pair in entry.thread_set}) - {pid}

    # Step 2: drop copies whose version was superseded.  A restored thread
    # still holding the version it read defers the drop, exactly like a
    # live deferred invalidation: its release acks the waiting writer.
    for obj_id in sorted(invalid):
        obj, next_owner = directory.get(obj_id), invalid[obj_id]
        edits.objects[obj_id] = (
            ObjectEdit(deferred=(next_owner, next_owner, obj.version))
            if obj.local_readers else ObjectEdit(prob_owner=next_owner))
    # Step 2b: drop restored read copies replay did not re-validate: an
    # invalidation received after the checkpoint died with the process.
    # Under concurrent recoveries the nextOwner fields vouching for a
    # re-installed copy came from other victims' checkpoints and may be
    # stale, so those go too.  A restored reader keeps its copy until it
    # releases (no ack is owed).  Step 2 decided the InvalidSet's objects.
    for obj in directory:
        if (obj.status is ObjectStatus.READ and obj.obj_id not in invalid
                and (plan.concurrent_recoveries
                     or obj.obj_id not in revalidated)):
            edits.objects[obj.obj_id] = ObjectEdit(
                deferred=(obj.prob_owner, None, obj.version)
                if obj.local_readers else None)

    # Steps 3+4: "the object's copySet is recovered using the threadSet".
    # Readers in the last version's threadSet are current and kept; every
    # other candidate -- including readers on *older* entries, which no
    # inherited copySet names -- may hold a stale copy and is
    # (re-)invalidated: idempotent, and at worst one refetch.
    for obj in directory:
        edit = edits.objects.get(obj.obj_id)
        if obj.status is not ObjectStatus.OWNED or (
                edit is not None and edit.deferred is None):
            continue
        entries = log.entries_for(obj.obj_id)
        candidates = set(obj.copy_set) - {pid}
        for entry in entries:
            candidates |= entry.copy_holders(pid) | acquirers(entry)
        current = (acquirers(entries[-1]) if entries and obj.local_writer is None
                   and entries[-1].version == obj.version else set())
        edits.copy_sets.append((obj.obj_id, candidates, candidates - current))

    # Step 5: the dummy entries that were stored in the failed process.
    dummies: dict[tuple[ObjectId, ExecutionPoint], DummyEntry] = {}
    for dep in plan.dummy_set:
        dummies.setdefault((dep.obj_id, dep.ep_acq), DummyEntry(
            dep.obj_id, dep.ep_acq, local_dep=dep.ep_prd, type=dep.type))
    edits.dummies = list(dummies.values())
    return edits


def entry_for_dependency(log: ProcessLog, dep: Dependency) -> Optional[LogEntry]:
    """The log entry for the version ``dep`` refers to: the entry by the
    same producer thread with the greatest release point not after
    ``dep.ep_prd`` (dependencies carry no version number)."""
    releases = [(entry.ep_release.lt, entry) for entry in log.entries_for(dep.obj_id)
                if entry.tid_prd == dep.ep_prd.tid
                and entry.ep_release is not None
                and entry.ep_release.lt <= dep.ep_prd.lt]
    return max(releases, key=lambda release: release[0], default=(0, None))[1]
