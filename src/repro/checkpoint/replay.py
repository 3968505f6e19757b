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

On completion :meth:`LogReplayer.finalize` runs the paper's reconstruction
steps: attach DependList elements to (re-)created log entries, apply the
InvalidSet to recover ``probOwner``/``status``, recover copySets from
threadSets, re-create the dummy entries that were stored in the failed
process, and re-send invalidations for a write acquire that was in flight
at the crash.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.checkpoint.dummy import DummyEntry
from repro.checkpoint.log import LogEntry, is_pseudo
from repro.errors import ProtocolError
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


@dataclass
class ReplayItem:
    """One LogList element: a regular or a dummy logged acquire."""

    lt: int
    kind: str  # "regular" | "dummy"
    entry: Optional[LogEntry] = None
    ep_prd: Optional[ExecutionPoint] = None
    produced_in: Optional[ProcessId] = None
    dummy: Optional[DummyEntry] = None
    #: For regular items: True when *this* acquire (not merely some thread
    #: of this process) is the one that took ownership of the version.
    #: Several threads of one process may appear in the same version's
    #: threadSet; classification must be per execution point.
    is_write: bool = False

    @staticmethod
    def regular(lt: int, entry: LogEntry, ep_prd: ExecutionPoint,
                produced_in: ProcessId,
                ep_acq: ExecutionPoint) -> "ReplayItem":
        is_write = (entry.next_owner_ep is not None
                    and entry.next_owner_ep == ep_acq)
        return ReplayItem(lt=lt, kind="regular", entry=entry, ep_prd=ep_prd,
                          produced_in=produced_in, is_write=is_write)

    @staticmethod
    def from_dummy(dummy: DummyEntry) -> "ReplayItem":
        return ReplayItem(lt=dummy.ep_acq.lt, kind="dummy", dummy=dummy)

    @property
    def obj_id(self) -> ObjectId:
        return self.entry.obj_id if self.kind == "regular" else self.dummy.obj_id

    @property
    def version(self) -> Optional[int]:
        return self.entry.version if self.kind == "regular" else None


@dataclass
class ReplayPlan:
    """Everything the replayer needs, built by the RecoveryManager."""

    log_lists: dict[Tid, list[ReplayItem]]
    depend_lists: dict[Tid, list[Dependency]]
    dummy_set: list[Dependency]
    #: Logical time of each thread at the checkpoint: events at or before
    #: these are considered already reproduced (they are inside the
    #: restored state).
    ckpt_lts: dict[Tid, int]
    #: True when other processes were recovering concurrently: replay
    #: knowledge derived from their *checkpoint-state* logs (nextOwner,
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
                if item.kind == "regular":
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
                if item.kind == "dummy" and self._dep_reproduced(
                    obj_id, item.dummy.local_dep
                ):
                    priority = (0 if item.dummy.type.is_read else 1,
                                item.lt, tid.local)
                    out.append((priority, tid))
                break
        return sorted(out)

    def _gate_open(self, thread: Thread, syscall: Any, item: ReplayItem) -> bool:
        obj = self.process.directory.get(item.obj_id)
        acq_type: AcquireType = syscall.type
        if not obj.can_grant_locally(acq_type):
            return False
        claimants = self._claimants(item.obj_id)
        if item.kind == "dummy":
            if not self._dep_reproduced(item.obj_id, item.dummy.local_dep):
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

    def _apply(self, thread: Thread, syscall: Any, item: ReplayItem) -> None:
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
        items = self.plan.log_lists[thread.tid]
        items.pop(0)
        self._waiting.pop(thread.tid, None)

        if item.kind == "regular":
            entry = item.entry
            if entry.obj_id != syscall.obj_id:
                raise ProtocolError(
                    f"{thread.tid}: replay divergence -- program acquires "
                    f"{syscall.obj_id!r} but LogList has {entry.obj_id!r}"
                )
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
            dummy = item.dummy
            if dummy.obj_id != syscall.obj_id:
                raise ProtocolError(
                    f"{thread.tid}: replay divergence -- program acquires "
                    f"{syscall.obj_id!r} but dummy entry has {dummy.obj_id!r}"
                )
            if dummy.type is not acq_type:
                raise ProtocolError(
                    f"{thread.tid}: replay divergence -- acquire type "
                    f"{acq_type} vs dummy-logged {dummy.type}"
                )
            # Local acquire: the (reconstructed) local copy is the value;
            # note that no dummy entries are created during recovery.
            thread.dep_set.append(
                Dependency(dummy.obj_id, acq_type, ep_acq, dummy.local_dep,
                           dummy.p_log, local=True)
            )

        obj.ep_dep = ep_acq
        self._events.setdefault(item.obj_id, set()).add(ep_acq)
        obj.note_held(thread.tid, acq_type)
        value = snapshot(obj.data)
        thread.note_acquired(item.obj_id, acq_type, value)
        thread.wait_obj = None
        process.engine.emit_mem_event("acquire", thread.tid, ep_acq.lt, obj,
                                      acq_type, local=(item.kind == "dummy"),
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
        self._attach_dependencies()
        self._apply_invalid_set()
        self._drop_unvalidated_read_copies()
        self._reconcile_copy_sets()
        self._recreate_dummies()

    def _attach_dependencies(self) -> None:
        """Recover threadSets / nextOwner of (re-)created log entries from
        the DependList elements."""
        process = self.process
        log = process.checkpoint_protocol.log
        for tid in sorted(self.plan.depend_lists):
            for dep in self.plan.depend_lists[tid]:
                entry = self._entry_for_dependency(dep)
                if entry is None:
                    # Stale dependency: the entry (and this pair) was
                    # garbage-collected, which the GC only does once the
                    # acquirer's own checkpoint covers the acquire -- so
                    # the dependency is no longer needed for anyone's
                    # recovery.  (Its dep-set GC announcement simply had
                    # not reached the sender yet.)
                    process.kernel.trace.emit(
                        process.kernel.now, "recovery",
                        f"P{process.pid}: skipping stale dependency {dep}",
                    )
                    continue
                if not any(pair.ep_acq == dep.ep_acq for pair in entry.thread_set):
                    entry.add_access(dep.ep_acq, dep.ep_prd)
                if dep.type.is_write:
                    entry.next_owner = dep.ep_acq.tid.pid
                    entry.next_owner_ep = dep.ep_acq
                    obj = process.directory.get(dep.obj_id)
                    if (
                        log.last_entry(dep.obj_id) is entry
                        and obj.status is ObjectStatus.OWNED
                        and obj.version <= entry.version
                    ):
                        # Ownership left before the crash and our copy is
                        # not newer: the object must be invalidated.
                        self.invalid_set[dep.obj_id] = entry.next_owner

    def _apply_invalid_set(self) -> None:
        """Invalidate local copies whose version was superseded elsewhere."""
        for obj_id in sorted(self.invalid_set):
            next_owner = self.invalid_set[obj_id]
            obj = self.process.directory.get(obj_id)
            if obj.local_readers:
                # A recovering thread still holds the version it read; the
                # pre-crash invalidation was lost with the process.  Defer
                # exactly like a live deferred invalidation: the release
                # will ack the waiting writer.
                obj.pending_invalidate_from = (next_owner, next_owner, obj.version)
                continue
            obj.status = ObjectStatus.NO_ACCESS
            obj.data = None
            obj.prob_owner = next_owner
            obj.copy_set = set()

    def _drop_unvalidated_read_copies(self) -> None:
        """Conservatively drop restored read copies that replay did not
        re-validate: an invalidation received between the checkpoint and
        the crash died with the process, so a pre-checkpoint read copy may
        be arbitrarily stale.  Dropping it is always safe -- the next
        local acquire simply fetches a fresh copy."""
        for obj in self.process.directory:
            if obj.status is not ObjectStatus.READ:
                continue
            if (
                not self.plan.concurrent_recoveries
                and (obj.obj_id in self._revalidated
                     or obj.obj_id in self.invalid_set)
            ):
                # Single-failure recovery: a copy (re-)installed by replay
                # is precisely tracked via the survivors' nextOwner fields.
                # Under concurrent recoveries that knowledge came from
                # other victims' checkpoints and may be stale: drop all.
                continue
            if obj.local_readers:
                # A restored thread still holds its (legitimate) read; the
                # cached copy is dropped when it releases.  No ack is owed.
                obj.pending_invalidate_from = (obj.prob_owner, None, obj.version)
            else:
                obj.status = ObjectStatus.NO_ACCESS
                obj.data = None

    def _reconcile_copy_sets(self) -> None:
        """Reconcile copySets of objects we own (section 4.3.2: "the
        object's copySet is recovered using the threadSet").

        Readers named by the *last* version's threadSet are provably
        current and are kept.  Every other candidate -- a reader inherited
        by a replayed write acquire whose invalidations died with the
        crash, or a checkpointed reader whose pair was GC'd -- may hold a
        stale copy, so it is (re-)invalidated: invalidation is idempotent
        and at worst costs a current reader one refetch, while a missed
        stale reader would read old data forever.
        """
        process = self.process
        log = process.checkpoint_protocol.log
        for obj in process.directory:
            if obj.status is not ObjectStatus.OWNED:
                continue
            candidates = set(obj.copy_set) - {process.pid}
            # Readers recorded on *older* entries are candidates too: a
            # survivor that read a version we produced after our last
            # remote write grant appears in no inherited copySet -- only
            # as a threadSet pair (re-attached from its DependList) on a
            # non-last entry.  Its copy is stale and without this it
            # would never see an invalidation.
            for old in log.entries_for(obj.obj_id):
                candidates |= old.copy_holders(process.pid)
            entry = log.last_entry(obj.obj_id)
            current: set[ProcessId] = set()
            if (
                obj.local_writer is None
                and entry is not None
                and entry.version == obj.version
            ):
                current = {
                    pair.ep_acq.tid.pid for pair in entry.thread_set
                } - {process.pid}
            targets = candidates - current
            obj.copy_set = current | targets  # targets leave as they ack
            if targets:
                process.engine._send_invalidations(obj, targets)

    def _recreate_dummies(self) -> None:
        """Re-create the dummy log entries that were stored in the failed
        process (from the merged DummySet)."""
        dummy_log = self.process.checkpoint_protocol.dummy_log
        for dep in self.plan.dummy_set:
            dummy_log.store(
                DummyEntry(
                    obj_id=dep.obj_id,
                    ep_acq=dep.ep_acq,
                    local_dep=dep.ep_prd,
                    p_log=None,
                    type=dep.type,
                )
            )

    def _entry_for_dependency(self, dep: Dependency) -> Optional[LogEntry]:
        """The log entry for the version ``dep`` refers to: the entry by
        the same producer thread with the greatest release point not after
        ``dep.ep_prd`` (dependencies carry no version number)."""
        protocol = self.process.checkpoint_protocol
        best: Optional[LogEntry] = None
        for entry in protocol.log.entries_for(dep.obj_id):
            if entry.tid_prd != dep.ep_prd.tid:
                continue
            if entry.ep_release is not None and entry.ep_release.lt <= dep.ep_prd.lt:
                if best is None or entry.ep_release.lt > best.ep_release.lt:
                    best = entry
        return best
