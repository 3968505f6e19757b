"""Entry-consistency coherence engine (paper sections 3.1, 4.1, 4.2).

One :class:`EntryConsistencyEngine` runs inside each DiSOM process.  It is
a faithful implementation of the paper's simplified presentation of
DiSOM's modified Li-Hudak dynamic-distributed-manager protocol:

* acquire requests travel along the ``probOwner`` chain to the owner;
* the owner queues conflicting requests (CREW), grants compatible ones;
* read grants hand out read-only copies tracked in the owner's ``copySet``;
* write grants move ownership (and the copySet) to the writer, which then
  invalidates the outstanding read copies;
* local (message-free) re-acquires are satisfied from the valid local copy.

The checkpoint protocol of the paper is *tightly integrated* with this
engine; the integration points are expressed as the :class:`CoherenceHooks`
interface so that the same engine also runs bare (the no-fault-tolerance
baseline) or under alternative fault-tolerance schemes (Janssens-Fuchs
communication-induced checkpointing, coordinated checkpointing).

Engineering deviations from the paper's prose (each justified in
DESIGN.md):

* invalidations carry the version they kill and requesters keep a
  per-object *stale floor*, closing the reply/invalidate race inherent in
  the simplified centralized-copySet presentation;
* a writer waits for invalidation acknowledgements before entering its
  critical section (strict CREW; ablation A3 relaxes it);
* re-issue of possibly-lost acquire requests happens shortly after
  recovery completes rather than during data collection, and recovery
  completion broadcasts per-thread resume points so survivors can purge
  stale bookkeeping (prevents duplicate grants);
* Li-Hudak path compression lives in engine-local forward hints, not in
  ``prob_owner``, and stops for good at the first crash a process learns
  of: recovery and re-issued duplicates see only the probOwner graph.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.errors import ProtocolError
from repro.memory.model import (
    CoherenceHooks,
    ConsistencyModel,
    PendingRequest,
)
from repro.memory.objects import SharedObject
from repro.net.message import (
    Ack,
    AcquireReply,
    GrantControl,
    Invalidate,
    Message,
    MessageKind,
)
from repro.threads.syscalls import Release
from repro.threads.thread import Thread, snapshot
from repro.types import (
    AcquireType,
    ExecutionPoint,
    HoldState,
    ObjectId,
    ObjectStatus,
    ProcessId,
    Tid,
    WaitObj,
)

__all__ = [
    "CoherenceHooks",
    "EntryConsistencyEngine",
    "MAX_FORWARD_HOPS",
    "PendingRequest",
]

#: Forwarding hop budget; exceeding it means a broken probOwner chain.
MAX_FORWARD_HOPS = 10_000


class EntryConsistencyEngine(ConsistencyModel):
    """The per-process coherence protocol state machine (the reference
    :class:`~repro.memory.model.ConsistencyModel` backend)."""

    name = "entry"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: FIFO queues of conflicting requests, per object (owner side).
        self._queues: dict[ObjectId, deque[PendingRequest]] = {}
        #: Dedup bookkeeping: for each object, eps we have queued/granted.
        self._seen: dict[ObjectId, dict[ExecutionPoint, str]] = {}
        #: Write acquires waiting for invalidation acks:
        #: (obj, tid) -> {"waiting": set of pids, "action": completion}.
        self._pending_acks: dict[tuple[ObjectId, Tid], dict] = {}
        #: Objects whose read copies are being invalidated for a *local*
        #: write acquire; conflicting acquires queue behind it.
        self._invalidating: set[ObjectId] = set()
        #: Remote write acquires whose ownership has arrived but whose
        #: completion waits for *sibling threads'* local read holds to
        #: drain (local CREW): obj -> list of (thread, value).
        self._pending_local_writes: dict[ObjectId, list] = {}
        #: Highest version known stale per object (reply/invalidate race).
        self._stale_floor: dict[ObjectId, tuple[int, ProcessId]] = {}
        #: Object ids with a pending local *write* request (awaiting
        #: ownership); incoming requests for them are queued, not forwarded.
        self._awaiting_ownership: set[ObjectId] = set()
        #: Li-Hudak path compression, kept apart from ``prob_owner``: the
        #: writer whose request we last forwarded (see _send_request).
        self._forward_hints: dict[ObjectId, ProcessId] = {}
        #: Off for good once this process learns of a crash or recovers.
        self._hinting = True

    # ==================================================================
    # syscall entry points (called by the process / scheduler handler)
    # ==================================================================
    def handle_acquire(self, thread: Thread, syscall: Any) -> None:
        if not self.scheduler.alive:
            return
        obj_id = syscall.obj_id
        acq_type = syscall.type
        if obj_id in self.blocked_objects:
            # Recovery replay still owes versions of this object; defer.
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

        if self._local_acquire_possible(obj, acq_type):
            queue = self._queues.get(obj_id)
            if queue or obj_id in self._invalidating or obj_id in self._pending_local_writes:
                # Fairness: do not bypass already-queued requests (or a
                # local write whose invalidations are still in flight).
                req = PendingRequest(obj_id, acq_type, self.pid, ep_acq, thread=thread)
                self._enqueue(obj, req)
            elif obj.can_grant_locally(acq_type):
                self._admit_local(thread, obj, acq_type, ep_acq)
            else:
                req = PendingRequest(obj_id, acq_type, self.pid, ep_acq, thread=thread)
                self._enqueue(obj, req)
        else:
            self.metrics.remote_acquires += 1
            self._send_request(
                PendingRequest(obj_id, acq_type, self.pid, ep_acq, thread=thread))

    def handle_release(self, thread: Thread, syscall: Release) -> None:
        obj_id = syscall.obj_id
        mode = thread.check_can_release(obj_id)
        obj = self.directory.get(obj_id)
        value = syscall.value if syscall.has_value else thread.acquired_values.get(obj_id)
        thread.note_released(obj_id)
        obj.note_released(thread.tid)

        if mode.is_write:
            if obj.status is not ObjectStatus.OWNED:
                raise ProtocolError(
                    f"{self.pid}: release-write of {obj_id} but not owner"
                )
            obj.data = snapshot(value)
            obj.version += 1
            obj.ep_dep = thread.current_ep()
            self.metrics.release_writes += 1
            self.hooks.on_release_write(thread, obj)
            self.emit_mem_event("write", thread.tid, thread.lt, obj, mode)
        else:
            self.metrics.release_reads += 1
            if obj.status is ObjectStatus.OWNED:
                obj.ep_dep = thread.current_ep()
            self._maybe_complete_deferred_invalidate(obj)
        self.emit_mem_event("release", thread.tid, thread.lt, obj, mode)

        self._maybe_finish_pending_local_write(obj)
        self._process_queue(obj)
        self.scheduler.complete(thread, None)

    # ==================================================================
    # local acquires (paper 4.2, local-acquire steps)
    # ==================================================================
    def _local_acquire_possible(self, obj: SharedObject, acq_type: AcquireType) -> bool:
        if acq_type.is_write:
            return obj.status is ObjectStatus.OWNED
        return obj.has_valid_copy

    def _admit_local(
        self,
        thread: Thread,
        obj: SharedObject,
        acq_type: AcquireType,
        ep_acq: ExecutionPoint,
    ) -> None:
        """Admit a local acquire, invalidating remote read copies first
        when a write at the owner conflicts with them (CREW)."""
        if acq_type.is_write and obj.copy_set and obj.status is ObjectStatus.OWNED:
            targets = set(obj.copy_set)
            self._send_invalidations(obj, targets)
            if self.strict_invalidation_acks:
                self._invalidating.add(obj.obj_id)
                self._pending_acks[(obj.obj_id, thread.tid)] = {
                    "waiting": targets,
                    "action": lambda: self._grant_local(thread, obj, acq_type, ep_acq),
                }
                return
        self._grant_local(thread, obj, acq_type, ep_acq)

    def _grant_local(
        self,
        thread: Thread,
        obj: SharedObject,
        acq_type: AcquireType,
        ep_acq: ExecutionPoint,
    ) -> None:
        local_dep = obj.ep_dep
        if acq_type.is_write:
            # The acquire may be a converted own-request that had been
            # issued remotely before ownership arrived here; the wait is
            # over (we own the object now).
            self._awaiting_ownership.discard(obj.obj_id)
        self.hooks.on_local_acquire(thread, obj, acq_type, ep_acq, local_dep)
        obj.ep_dep = ep_acq
        obj.note_held(thread.tid, acq_type)
        value = snapshot(obj.data)
        thread.note_acquired(obj.obj_id, acq_type, value)
        thread.wait_obj = None
        self.metrics.local_acquires += 1
        self.emit_mem_event("acquire", thread.tid, ep_acq.lt, obj, acq_type,
                            local=True)
        if acq_type.is_read:
            self.emit_mem_event("read", thread.tid, ep_acq.lt, obj, acq_type,
                                local=True)
        self.scheduler.complete(thread, value)

    # ==================================================================
    # remote acquires: request path
    # ==================================================================
    def _send_request(self, req: PendingRequest, dst: Optional[ProcessId] = None,
                      forward: bool = False) -> None:
        """The one ACQUIRE_REQUEST send site.  ``dst`` defaults to the
        route: the forward hint (never back to the requester), else
        ``prob_owner``.  Forwarding another process's write request points
        the hint at that writer until this process learns of a crash."""
        obj_id = req.obj_id
        if dst is None:
            dst = self._forward_hints.get(obj_id)
            if dst is None or dst == req.p_acq:
                dst = self.directory.get(obj_id).prob_owner
        if forward:
            if req.hops + 1 > MAX_FORWARD_HOPS:
                raise ProtocolError(
                    f"{self.pid}: forwarding budget exceeded for {obj_id}")
            req.hops += 1
            self.metrics.request_forwards += 1
            if self._hinting and req.type.is_write and req.p_acq != self.pid:
                self._forward_hints[obj_id] = req.p_acq
        elif dst == self.pid:
            # probOwner points at ourselves but the local copy is not
            # valid -- can only be a transient recovery state; treat as a
            # protocol bug to surface loudly.
            raise ProtocolError(
                f"{self.pid}: request for {obj_id} routed to self "
                f"(status={self.directory.get(obj_id).status})"
            )
        elif req.type.is_write:
            self._awaiting_ownership.add(obj_id)
        self.send_message(
            MessageKind.ACQUIRE_REQUEST, dst, req.wire_payload(), req.wire_control()
        )

    def _enqueue(self, obj: SharedObject, req: PendingRequest) -> None:
        self._queues.setdefault(obj.obj_id, deque()).append(req)
        self._seen.setdefault(obj.obj_id, {})[req.ep_acq] = "queued"
        self.metrics.queued_requests += 1

    # ==================================================================
    # message handling (routed through ``handlers``, below)
    # ==================================================================
    def _on_request(self, message: Message) -> None:
        request = message.payload
        req = PendingRequest(
            obj_id=request.obj_id,
            type=request.type,
            p_acq=request.p_acq,
            ep_acq=message.piggyback.control.ep_acq,
            hops=request.hops,
        )
        obj = self.directory.get(req.obj_id)

        seen = self._seen.get(req.obj_id, {})
        if req.ep_acq in seen:
            # Duplicate (re-issued) request: "detected and discarded by the
            # memory coherence protocol" (paper 4.3.1 step 5).
            self.metrics.duplicate_requests_discarded += 1
            return
        if req.p_acq in self._known_crashed:
            # Never grant to a process known to have failed; its recovery
            # will re-create or re-issue the acquire as appropriate.
            return
        if req.p_acq == self.pid:
            # Our own request came back to us: ownership returned here
            # (e.g. reclaimed after a multi-failure rollback) while the
            # request was travelling.  Convert it to a local request.
            thread = self.scheduler.threads.get(req.ep_acq.tid)
            if (
                thread is None
                or thread.wait_obj is None
                or thread.wait_obj.ep_acq != req.ep_acq
            ):
                self.metrics.duplicate_requests_discarded += 1
                return
            req.thread = thread

        if obj.status is ObjectStatus.OWNED:
            self._owner_admit(obj, req)
        elif req.obj_id in self._awaiting_ownership and not req.is_local:
            # We will (eventually) become the owner: queue behind our own
            # pending write instead of bouncing the request around.  Our
            # *own* awaited request must never park behind itself -- it is
            # forwarded along the (healing) probOwner chain instead.
            self._enqueue(obj, req)
        elif req.is_local and obj.prob_owner == self.pid:
            # Transient: our ownership hint points at ourselves but the
            # copy is invalid.  Drop; the post-recovery re-issue retries.
            self.metrics.duplicate_requests_discarded += 1
        else:
            self._send_request(req, forward=True)

    def _owner_admit(self, obj: SharedObject, req: PendingRequest) -> None:
        queue = self._queues.get(obj.obj_id)
        if queue or obj.obj_id in self._invalidating:
            self._enqueue(obj, req)
            return
        if req.type.is_write:
            grantable = obj.can_grant_locally(AcquireType.WRITE)
        else:
            grantable = obj.local_writer is None
        if not grantable:
            self._enqueue(obj, req)
        elif not self.grant_gate(req.ep_acq, self.pid):
            self.metrics.duplicate_requests_discarded += 1
        elif req.is_local:
            self._admit_local(req.thread, obj, req.type, req.ep_acq)
        else:
            self._grant_remote(obj, req)

    # ------------------------------------------------------------------
    # granting (owner side; paper 4.2 step 2)
    # ------------------------------------------------------------------
    def _grant_remote(self, obj: SharedObject, req: PendingRequest) -> None:
        self.hooks.on_before_grant_data(obj, req)
        control = GrantControl(obj.version, req.ep_acq,
                               self.hooks.on_remote_grant(obj, req))
        self._seen.setdefault(obj.obj_id, {})[req.ep_acq] = "granted"
        self.metrics.grants += 1

        reply = AcquireReply(obj.obj_id, req.type, snapshot(obj.data), self.pid)
        if req.type.is_write:
            # 2(b): move ownership and the copySet to the new writer.
            reply.copy_set = sorted(obj.copy_set - {req.p_acq})
            self.send_message(MessageKind.ACQUIRE_REPLY, req.p_acq, reply, control)
            self._transfer_ownership(obj, req.p_acq)
        else:
            # 2(a): add the reader to the copySet.
            obj.copy_set.add(req.p_acq)
            self.send_message(MessageKind.ACQUIRE_REPLY, req.p_acq, reply, control)

    def _transfer_ownership(self, obj: SharedObject, new_owner: ProcessId) -> None:
        obj.prob_owner = new_owner
        self._forward_hints.pop(obj.obj_id, None)
        obj.status = ObjectStatus.NO_ACCESS
        obj.copy_set = set()
        obj.data = None
        self.metrics.ownership_transfers += 1
        # Forward the rest of the queue to the new owner (Li's protocol).
        queue = self._queues.pop(obj.obj_id, None)
        if queue:
            seen = self._seen.get(obj.obj_id, {})
            for queued in queue:
                seen.pop(queued.ep_acq, None)
                # Our own thread's request now needs the remote path.
                self.metrics.remote_acquires += queued.is_local
                self._send_request(queued, new_owner, forward=not queued.is_local)

    def _process_queue(self, obj: SharedObject) -> None:
        """Grant whatever the CREW rules now allow, in FIFO order."""
        queue = self._queues.get(obj.obj_id)
        if (
            not queue
            or obj.status is not ObjectStatus.OWNED
            or obj.obj_id in self._invalidating
        ):
            return
        while queue:
            head = queue[0]
            is_write = head.type.is_write
            if is_write and not obj.can_grant_locally(AcquireType.WRITE):
                break
            if not is_write and obj.local_writer is not None:
                break
            queue.popleft()
            self._seen.get(obj.obj_id, {}).pop(head.ep_acq, None)
            if not self.grant_gate(head.ep_acq, self.pid):
                self.metrics.duplicate_requests_discarded += 1
                continue
            if not head.is_local:
                self._grant_remote(obj, head)
            elif is_write:
                self._admit_local(head.thread, obj, head.type, head.ep_acq)
            else:
                self._grant_local(head.thread, obj, head.type, head.ep_acq)
            if is_write:
                break  # a write grant ends the batch either way
        if not queue:
            self._queues.pop(obj.obj_id, None)

    # ------------------------------------------------------------------
    # reply path (requester side; paper 4.2 step 3)
    # ------------------------------------------------------------------
    def _on_reply(self, message: Message) -> None:
        reply: AcquireReply = message.payload
        control: GrantControl = message.piggyback.control
        obj_id = reply.obj_id
        ep_acq = control.ep_acq
        acq_type = reply.type
        thread = self.scheduler.threads.get(ep_acq.tid)
        if (
            thread is None
            or thread.wait_obj is None
            or thread.wait_obj.ep_acq != ep_acq
        ):
            # Stale/duplicate reply (re-issue race or pre-crash leftover).
            self.metrics.duplicate_requests_discarded += 1
            return

        obj = self.directory.get(obj_id)
        version = control.version
        p_prd = reply.p_prd
        self._forward_hints.pop(obj_id, None)

        if acq_type.is_write:
            obj.data = snapshot(reply.obj_data)
            obj.version = version
            obj.status = ObjectStatus.OWNED
            obj.prob_owner = self.pid
            obj.copy_set = set(reply.copy_set or ())
            self._awaiting_ownership.discard(obj_id)
        else:
            stale = self._stale_floor.get(obj_id)
            if stale is not None and version <= stale[0]:
                # The copy we are receiving was already invalidated by a
                # newer writer; the thread still gets the version it
                # legitimately acquired, but no read copy is cached.
                obj.status = ObjectStatus.NO_ACCESS
                obj.prob_owner = stale[1]
                obj.data = None
            else:
                obj.data = snapshot(reply.obj_data)
                obj.version = version
                obj.status = ObjectStatus.READ
                obj.prob_owner = p_prd

        self.hooks.on_reply_received(thread, obj, acq_type, ep_acq, p_prd, control)
        obj.ep_dep = ep_acq
        thread.wait_obj = None

        value = snapshot(reply.obj_data)
        if acq_type.is_write:
            if obj.hold_state is not HoldState.FREE:
                # Ownership has arrived, but sibling threads still hold
                # local read copies: CREW defers the writer until they
                # release (the owner that granted us could not see them).
                self.hooks.on_ownership_installed(obj, ep_acq)
                self._pending_local_writes.setdefault(obj_id, []).append(
                    (thread, value)
                )
                return
            self._finish_remote_write(thread, obj, value)
        else:
            obj.note_held(thread.tid, acq_type)
            thread.note_acquired(obj_id, acq_type, value)
            # The granted version, not the copy's: a stale-floor reply
            # leaves no copy cached and obj.version behind.
            self.emit_mem_event("acquire", thread.tid, ep_acq.lt, obj, acq_type,
                                version=version)
            self.emit_mem_event("read", thread.tid, ep_acq.lt, obj, acq_type,
                                version=version)
            self.scheduler.complete(thread, value)

    def _finish_remote_write(self, thread: Thread, obj: SharedObject, value: Any) -> None:
        obj_id = obj.obj_id
        obj.note_held(thread.tid, AcquireType.WRITE)
        thread.note_acquired(obj_id, AcquireType.WRITE, value)
        self.emit_mem_event("acquire", thread.tid, thread.lt, obj,
                            AcquireType.WRITE)
        invalidatees = set(obj.copy_set)
        if invalidatees:
            self._send_invalidations(obj, invalidatees)
            if self.strict_invalidation_acks:
                self._pending_acks[(obj_id, thread.tid)] = {
                    "waiting": invalidatees,
                    "action": lambda: self.scheduler.complete(
                        thread, thread.acquired_values[obj_id]
                    ),
                }
                return  # completed when the last ack arrives
        self.scheduler.complete(thread, value)

    def _maybe_finish_pending_local_write(self, obj: SharedObject) -> None:
        pending = self._pending_local_writes.get(obj.obj_id)
        if not pending or obj.hold_state is not HoldState.FREE:
            return
        thread, value = pending.pop(0)
        if not pending:
            del self._pending_local_writes[obj.obj_id]
        self._finish_remote_write(thread, obj, value)

    def _send_invalidations(self, obj: SharedObject, targets: set[ProcessId]) -> None:
        for pid in sorted(targets):
            self.metrics.invalidations_sent += 1
            self.send_message(
                MessageKind.INVALIDATE,
                pid,
                Invalidate(obj.obj_id, self.pid, obj.version),
                None,
            )

    # ------------------------------------------------------------------
    # invalidation handling (reader side)
    # ------------------------------------------------------------------
    def _on_invalidate(self, message: Message) -> None:
        invalidate: Invalidate = message.payload
        obj = self.directory.get(invalidate.obj_id)
        new_owner = invalidate.new_owner
        version = invalidate.version
        self.metrics.invalidations_received += 1
        if obj.status is ObjectStatus.OWNED and obj.version >= version:
            # Late invalidation from an older writer, already superseded by
            # our own ownership (only reachable with relaxed acks, A3).
            self.send_message(
                MessageKind.INVALIDATE_ACK,
                new_owner,
                Ack(obj.obj_id, self.pid, version),
                None,
            )
            return
        floor = self._stale_floor.get(obj.obj_id)
        if floor is None or version > floor[0]:
            self._stale_floor[obj.obj_id] = (version, new_owner)

        if obj.local_readers:
            # Defer: a local thread is inside its read critical section;
            # the ack goes out when the last reader releases.
            obj.pending_invalidate_from = (new_owner, new_owner, version)
            return
        self._apply_invalidate(obj, new_owner, ack_to=new_owner, version=version)

    def _apply_invalidate(
        self,
        obj: SharedObject,
        new_owner: ProcessId,
        ack_to: Optional[ProcessId],
        version: Optional[int] = None,
    ) -> None:
        if obj.status is ObjectStatus.READ:
            obj.status = ObjectStatus.NO_ACCESS
            obj.data = None
        obj.prob_owner = new_owner
        self._forward_hints.pop(obj.obj_id, None)
        obj.pending_invalidate_from = None
        if ack_to is not None:
            self.send_message(
                MessageKind.INVALIDATE_ACK,
                ack_to,
                Ack(obj.obj_id, self.pid,
                    version if version is not None else obj.version),
                None,
            )

    def _maybe_complete_deferred_invalidate(self, obj: SharedObject) -> None:
        if obj.pending_invalidate_from is not None and not obj.local_readers:
            new_owner, ack_to, version = obj.pending_invalidate_from
            self._apply_invalidate(obj, new_owner, ack_to, version)

    def _on_invalidate_ack(self, message: Message) -> None:
        ack: Ack = message.payload
        obj_id = ack.obj_id
        source = ack.sender
        obj = self.directory.get(obj_id)
        if ack.version >= obj.version:
            # An ack for an *older* invalidation (e.g. one re-sent across a
            # recovery) must not evict a reader that has since re-acquired
            # a current copy.
            obj.copy_set.discard(source)
        for (pending_obj, tid), pending in list(self._pending_acks.items()):
            if pending_obj != obj_id:
                continue
            pending["waiting"].discard(source)
            if not pending["waiting"]:
                del self._pending_acks[(pending_obj, tid)]
                self._invalidating.discard(obj_id)
                pending["action"]()
                self._process_queue(obj)

    handlers = {
        MessageKind.ACQUIRE_REQUEST: _on_request,
        MessageKind.ACQUIRE_REPLY: _on_reply,
        MessageKind.INVALIDATE: _on_invalidate,
        MessageKind.INVALIDATE_ACK: _on_invalidate_ack,
    }

    # ==================================================================
    # recovery support hooks (used by repro.checkpoint.recovery/replay;
    # mode switching / barrier plumbing is inherited from the base)
    # ==================================================================
    def note_crashed(self, pid: ProcessId) -> None:
        """Failure detector: purge queued requests from the dead process
        and every forward hint (recovery assumes the probOwner graph)."""
        self._known_crashed.add(pid)
        self._hinting = False
        self._forward_hints.clear()
        for obj_id, queue in list(self._queues.items()):
            keep = deque(r for r in queue if r.p_acq != pid)
            dropped = [r for r in queue if r.p_acq == pid]
            for req in dropped:
                self._seen.get(obj_id, {}).pop(req.ep_acq, None)
            if keep:
                self._queues[obj_id] = keep
            else:
                self._queues.pop(obj_id, None)

    def enter_recovery_mode(self) -> None:
        self._hinting = False
        super().enter_recovery_mode()

    def note_recovered(self, pid: ProcessId, resume_lts: dict[Tid, int]) -> None:
        """RECOVERY_DONE: purge bookkeeping past the resume points.

        Grants recorded for executions the recovering process discarded
        (acquires beyond the replay prefix) must be forgotten, otherwise
        the re-executed thread's fresh request at the same logical time
        would be discarded as a duplicate.
        """
        self._known_crashed.discard(pid)
        for obj_id, seen in self._seen.items():
            for ep in list(seen):
                if ep.tid.pid != pid:
                    continue
                resume = resume_lts.get(ep.tid)
                if resume is not None and ep.lt > resume:
                    del seen[ep]
        # A write acquire of ours may still be waiting for an invalidation
        # ack that died with the crashed process; re-send the invalidation
        # (idempotent at the receiver) so the ack can arrive.
        for (obj_id, _tid), pending in list(self._pending_acks.items()):
            if pid in pending["waiting"]:
                self._send_invalidations(self.directory.get(obj_id), {pid})

    def reissue_pending(self) -> int:
        """Re-issue acquire requests that may have died with a process
        (paper 4.3.1 step 5); duplicates are discarded by dedup."""
        reissued = 0
        for tid in sorted(self.scheduler.threads):
            thread = self.scheduler.threads[tid]
            wait = thread.wait_obj
            if wait is None:
                continue
            if (wait.obj_id, tid) in self._pending_acks:
                continue  # waiting on invalidation acks, not on a reply
            obj = self.directory.get(wait.obj_id)
            req = PendingRequest(wait.obj_id, wait.type, self.pid, wait.ep_acq,
                                 thread=thread)
            queue = self._queues.get(wait.obj_id)
            if queue and any(r.ep_acq == wait.ep_acq for r in queue):
                continue  # still safely queued locally
            if obj.prob_owner == self.pid:
                # Ownership arrived here while the thread's request was
                # still travelling: admit it locally (deduplicated like an
                # arriving request).
                if wait.ep_acq in self._seen.get(wait.obj_id, {}):
                    continue
                if obj.status is ObjectStatus.OWNED:
                    self.metrics.reissued_requests += 1
                    reissued += 1
                    self._owner_admit(obj, req)
                continue  # not owner yet: transient hint, retry next tick
            self.metrics.reissued_requests += 1
            reissued += 1
            self._send_request(req, obj.prob_owner)
        return reissued

    # ==================================================================
    # introspection (system quiescence checks)
    # ==================================================================
    def has_pending_acks(self) -> bool:
        return bool(self._pending_acks)
