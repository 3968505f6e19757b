"""Sequential-consistency backend (SC-ABD style write-through).

Follows the shape of Ekström & Haridi's fault-tolerant sequentially
consistent DSM (arXiv 1608.02442).  Every shared object has a fixed
*home* process (its :class:`~repro.memory.objects.SharedObjectSpec`
``home``) that serializes CREW admission through a lock table; reads are
served from the replicated copy shipped with the grant, and every
release-write is **write-through** -- the home broadcasts the new
version to every live peer and the writer's release does not complete
until each of them has acknowledged it (the two-phase write of ABD,
collapsed onto the simulator's reliable but asynchronous links).

Ownership never moves: the home stays ``OWNED`` for the whole run and
every other process holds at most a ``READ`` replica, which keeps the
system-level quiescence invariants
(:meth:`repro.cluster.system.DisomSystem.check_invariants`) meaningful
across backends.  The backend has no DiSOM recovery machinery; it
inherits the inert recovery surface of :class:`ConsistencyModel` and
serves failure-free runs and abort-on-crash baselines.

This is deliberately the expensive end of the consistency spectrum the
paper positions entry consistency against: each write costs a broadcast
plus a full round of acks on the critical path, where EC ships data at
most once per remote acquire and repeated writes at the owner are free.
Experiment E14 (:mod:`repro.experiments.consistency_matrix`) measures
exactly this gap.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.memory.model import ConsistencyModel, PendingRequest
from repro.memory.objects import SharedObject
from repro.net.message import (
    Ack,
    AcquireReply,
    GrantControl,
    Message,
    MessageKind,
    ScRelease,
    ScReleaseDone,
    ScUpdate,
)
from repro.threads.syscalls import Release
from repro.threads.thread import Thread, snapshot
from repro.types import (
    AcquireType,
    ExecutionPoint,
    ObjectId,
    ObjectStatus,
    ProcessId,
    Tid,
    WaitObj,
)

__all__ = ["SequentialConsistencyEngine"]


class SequentialConsistencyEngine(ConsistencyModel):
    """Home-lock CREW admission + acknowledged write-through replication."""

    name = "sequential"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Home-side lock table: current writer per object (exclusive).
        self._lock_writer: Dict[ObjectId, ProcessId] = {}
        #: Home-side lock table: read-hold counts per object per process.
        self._lock_readers: Dict[ObjectId, Dict[ProcessId, int]] = {}
        #: Home-side FIFO of requests the lock cannot admit yet.
        self._lock_queue: Dict[ObjectId, "deque[PendingRequest]"] = {}
        #: Home side: one in-flight write-through round per object (the
        #: write lock stays held until it completes, so never more).
        #: obj -> {"waiting": pids, "writer": pid, "done_to", "completion"}.
        self._pending_updates: Dict[ObjectId, Dict[str, Any]] = {}
        #: Writer side: releases blocked on the home's SC_RELEASE_DONE.
        self._await_done: Dict[Tuple[ObjectId, Tid], Thread] = {}

    # ==================================================================
    # syscall entry points
    # ==================================================================
    def handle_acquire(self, thread: Thread, syscall: Any) -> None:
        if not self.scheduler.alive:
            return
        obj_id = syscall.obj_id
        acq_type = syscall.type
        if obj_id in self.blocked_objects:
            self._barrier_waiters.setdefault(obj_id, []).append((thread, syscall))
            return
        if self.hold_normal_acquires:
            self._held_acquires.append((thread, syscall))
            return
        obj = self.directory.get(obj_id)
        thread.check_can_acquire(obj_id)
        thread.tick()
        thread.acquire_pending = True
        ep_acq = thread.current_ep()
        thread.wait_obj = WaitObj(obj_id, acq_type, ep_acq)

        req = PendingRequest(obj_id, acq_type, self.pid, ep_acq, thread=thread)
        home = obj.prob_owner
        if home == self.pid:
            self._home_admit(obj, req)
        else:
            self.metrics.remote_acquires += 1
            self.send_message(
                MessageKind.SC_ACQUIRE, home, req.wire_payload(), req.wire_control()
            )

    def handle_release(self, thread: Thread, syscall: Release) -> None:
        obj_id = syscall.obj_id
        mode = thread.check_can_release(obj_id)
        obj = self.directory.get(obj_id)
        value = syscall.value if syscall.has_value else thread.acquired_values.get(obj_id)
        thread.note_released(obj_id)
        obj.note_released(thread.tid)

        if mode.is_write:
            obj.data = snapshot(value)
            obj.version += 1
            obj.ep_dep = thread.current_ep()
            self.metrics.release_writes += 1
            self.hooks.on_release_write(thread, obj)
            self.emit_mem_event("write", thread.tid, thread.lt, obj, mode)
            # Write-through: the release completes once the home's
            # replication round has been acknowledged by every replica.
            home = obj.prob_owner
            if home == self.pid:
                self._finish_home_write(obj, writer_pid=self.pid, completion=thread)
            else:
                self._await_done[(obj_id, thread.tid)] = thread
                self.send_message(
                    MessageKind.SC_RELEASE,
                    home,
                    ScRelease(obj_id, True, self.pid, thread.tid, obj.version,
                              snapshot(obj.data)),
                    None,
                )
        else:
            self.metrics.release_reads += 1
            self.emit_mem_event("release", thread.tid, thread.lt, obj, mode)
            home = obj.prob_owner
            if home == self.pid:
                self._lock_release_read(obj, self.pid)
            else:
                self.send_message(
                    MessageKind.SC_RELEASE,
                    home,
                    ScRelease(obj_id, False, self.pid),
                    None,
                )
            self.scheduler.complete(thread, None)

    # ==================================================================
    # message handling (routed through ``handlers``, below)
    # ==================================================================
    def _on_acquire_msg(self, message: Message) -> None:
        request = message.payload
        req = PendingRequest(
            obj_id=request.obj_id,
            type=request.type,
            p_acq=request.p_acq,
            ep_acq=message.piggyback.control.ep_acq,
            hops=request.hops,
        )
        if req.p_acq in self._known_crashed:
            return
        obj = self.directory.get(req.obj_id)
        self._home_admit(obj, req)

    def _on_grant(self, message: Message) -> None:
        grant: AcquireReply = message.payload
        control: GrantControl = message.piggyback.control
        ep_acq = control.ep_acq
        acq_type = grant.type
        thread = self.scheduler.threads.get(ep_acq.tid)
        if (
            thread is None
            or thread.wait_obj is None
            or thread.wait_obj.ep_acq != ep_acq
        ):
            self.metrics.duplicate_requests_discarded += 1
            return
        obj = self.directory.get(grant.obj_id)
        version = control.version
        if version >= obj.version:
            obj.data = snapshot(grant.obj_data)
            obj.version = version
            if obj.status is not ObjectStatus.OWNED:
                obj.status = ObjectStatus.READ
        self.hooks.on_reply_received(
            thread, obj, acq_type, ep_acq, grant.p_prd, control
        )
        self._complete_acquire(thread, obj, acq_type, ep_acq, local=False)

    def _on_release_msg(self, message: Message) -> None:
        release: ScRelease = message.payload
        obj = self.directory.get(release.obj_id)
        if release.write:
            obj.data = snapshot(release.obj_data)
            obj.version = release.version
            self._finish_home_write(
                obj,
                writer_pid=release.p_rel,
                done_to=(release.p_rel, release.tid),
            )
        else:
            self._lock_release_read(obj, release.p_rel)

    def _on_release_done(self, message: Message) -> None:
        done: ScReleaseDone = message.payload
        thread = self._await_done.pop((done.obj_id, done.tid), None)
        if thread is None:
            return
        obj = self.directory.get(done.obj_id)
        self.emit_mem_event("release", thread.tid, thread.lt, obj,
                            AcquireType.WRITE)
        self.scheduler.complete(thread, None)

    # ==================================================================
    # home-side lock manager
    # ==================================================================
    def _home_admit(self, obj: SharedObject, req: PendingRequest) -> None:
        if obj.status is not ObjectStatus.OWNED or obj.prob_owner != self.pid:
            raise ProtocolError(
                f"{self.pid}: home-lock request for {req.obj_id} at non-home "
                f"(status={obj.status})"
            )
        queue = self._lock_queue.get(req.obj_id)
        if queue or not self._lock_compatible(req):
            self._lock_queue.setdefault(req.obj_id, deque()).append(req)
            self.metrics.queued_requests += 1
        else:
            self._lock_grant(obj, req)

    def _lock_compatible(self, req: PendingRequest) -> bool:
        if req.obj_id in self._lock_writer:
            return False
        if req.type.is_write:
            return not self._lock_readers.get(req.obj_id)
        return True

    def _lock_grant(self, obj: SharedObject, req: PendingRequest) -> None:
        if not self.grant_gate(req.ep_acq, self.pid):
            self.metrics.duplicate_requests_discarded += 1
            return
        if req.type.is_write:
            self._lock_writer[req.obj_id] = req.p_acq
        else:
            readers = self._lock_readers.setdefault(req.obj_id, {})
            readers[req.p_acq] = readers.get(req.p_acq, 0) + 1
        if req.is_local:
            assert req.thread is not None
            self.hooks.on_local_acquire(req.thread, obj, req.type, req.ep_acq,
                                        obj.ep_dep)
            self.metrics.local_acquires += 1
            self._complete_acquire(req.thread, obj, req.type, req.ep_acq,
                                   local=True)
        else:
            self._grant_remote(obj, req)

    def _lock_release_read(self, obj: SharedObject, pid: ProcessId) -> None:
        readers = self._lock_readers.get(obj.obj_id)
        if readers:
            count = readers.get(pid, 0) - 1
            if count > 0:
                readers[pid] = count
            else:
                readers.pop(pid, None)
            if not readers:
                self._lock_readers.pop(obj.obj_id, None)
        self._pump_lock_queue(obj)

    def _pump_lock_queue(self, obj: SharedObject) -> None:
        """Grant whatever the lock now admits, in FIFO order."""
        queue = self._lock_queue.get(obj.obj_id)
        while queue:
            head = queue[0]
            if not self._lock_compatible(head):
                break
            queue.popleft()
            self._lock_grant(obj, head)
            if head.type.is_write:
                break  # an exclusive grant ends the batch
        if queue is not None and not queue:
            self._lock_queue.pop(obj.obj_id, None)

    # ==================================================================
    # grant paths
    # ==================================================================
    def _grant_remote(self, obj: SharedObject, req: PendingRequest) -> None:
        self.hooks.on_before_grant_data(obj, req)
        control = GrantControl(obj.version, req.ep_acq,
                               self.hooks.on_remote_grant(obj, req))
        self.metrics.grants += 1
        obj.copy_set.add(req.p_acq)
        grant = AcquireReply(obj.obj_id, req.type, snapshot(obj.data), self.pid)
        self.send_message(MessageKind.SC_GRANT, req.p_acq, grant, control)

    def _complete_acquire(
        self,
        thread: Thread,
        obj: SharedObject,
        acq_type: AcquireType,
        ep_acq: ExecutionPoint,
        *,
        local: bool,
    ) -> None:
        obj.ep_dep = ep_acq
        obj.note_held(thread.tid, acq_type)
        value = snapshot(obj.data)
        thread.note_acquired(obj.obj_id, acq_type, value)
        thread.wait_obj = None
        self.emit_mem_event("acquire", thread.tid, ep_acq.lt, obj, acq_type,
                            local=local)
        if acq_type.is_read:
            self.emit_mem_event("read", thread.tid, ep_acq.lt, obj, acq_type,
                                local=local)
        self.scheduler.complete(thread, value)

    # ==================================================================
    # write-through round (home side)
    # ==================================================================
    def _finish_home_write(
        self,
        obj: SharedObject,
        writer_pid: ProcessId,
        done_to: Optional[Tuple[ProcessId, Tid]] = None,
        completion: Optional[Thread] = None,
    ) -> None:
        targets = self._replica_targets(exclude=writer_pid)
        obj.copy_set.update(targets)
        if writer_pid != self.pid:
            # The writer keeps its (freshly written) replica.
            obj.copy_set.add(writer_pid)
        if not targets:
            self._write_through_done(obj, writer_pid, done_to, completion)
            return
        self._pending_updates[obj.obj_id] = {
            "waiting": set(targets),
            "writer": writer_pid,
            "done_to": done_to,
            "completion": completion,
        }
        for pid in targets:
            self.send_message(
                MessageKind.SC_UPDATE,
                pid,
                ScUpdate(obj.obj_id, obj.version, snapshot(obj.data)),
                None,
            )

    def _replica_targets(self, exclude: ProcessId) -> List[ProcessId]:
        """Every live peer except this process and ``exclude``."""
        skip = set(self._known_crashed)
        skip.update((self.pid, exclude))
        return [p for p in self.peer_lister() if p not in skip]

    def _on_update(self, message: Message) -> None:
        update: ScUpdate = message.payload
        obj = self.directory.get(update.obj_id)
        if update.version > obj.version:
            obj.data = snapshot(update.obj_data)
            obj.version = update.version
        if obj.status is ObjectStatus.NO_ACCESS:
            obj.status = ObjectStatus.READ
        self.send_message(
            MessageKind.SC_UPDATE_ACK,
            message.src,
            Ack(obj.obj_id, self.pid, update.version),
            None,
        )

    def _on_update_ack(self, message: Message) -> None:
        ack: Ack = message.payload
        obj_id = ack.obj_id
        pending = self._pending_updates.get(obj_id)
        if pending is None:
            return
        pending["waiting"].discard(ack.sender)
        if pending["waiting"]:
            return
        del self._pending_updates[obj_id]
        obj = self.directory.get(obj_id)
        self._write_through_done(
            obj, pending["writer"], pending["done_to"], pending["completion"]
        )

    def _write_through_done(
        self,
        obj: SharedObject,
        writer_pid: ProcessId,
        done_to: Optional[Tuple[ProcessId, Tid]],
        completion: Optional[Thread],
    ) -> None:
        if done_to is not None:
            p_rel, tid = done_to
            self.send_message(
                MessageKind.SC_RELEASE_DONE,
                p_rel,
                ScReleaseDone(obj.obj_id, tid),
                None,
            )
        if completion is not None:
            self.emit_mem_event("release", completion.tid, completion.lt, obj,
                                AcquireType.WRITE)
            self.scheduler.complete(completion, None)
        self._lock_writer.pop(obj.obj_id, None)
        self._pump_lock_queue(obj)

    handlers = {
        MessageKind.SC_ACQUIRE: _on_acquire_msg,
        MessageKind.SC_GRANT: _on_grant,
        MessageKind.SC_RELEASE: _on_release_msg,
        MessageKind.SC_RELEASE_DONE: _on_release_done,
        MessageKind.SC_UPDATE: _on_update,
        MessageKind.SC_UPDATE_ACK: _on_update_ack,
    }

    # ==================================================================
    # introspection
    # ==================================================================
    def has_pending_acks(self) -> bool:
        return bool(self._pending_updates or self._await_done)
