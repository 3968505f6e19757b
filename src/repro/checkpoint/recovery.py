"""Failure recovery: data collection and orchestration (paper section 4.3).

The survivor side (:func:`collect_recovery_data`) implements the five data
collection steps of section 4.3.1 (waitObj re-issue, step 5, is deferred to
just after RECOVERY_DONE -- see the coherence engine's module docstring).

The recovering side (:class:`RecoveryManager`) drives the whole procedure:
load the most recent checkpoint into a free processor, broadcast the
recovery request, merge the replies into per-thread LogLists/DependLists
and the DummySet, run multiple-failure detection, hand the lists to the
:class:`~repro.checkpoint.replay.LogReplayer`, and on completion recover
the object directory metadata and announce RECOVERY_DONE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.checkpoint.detection import (
    DetectionReport,
    find_prefix,
    find_unrecoverable,
)
from repro.checkpoint.dummy import DummyEntry
from repro.checkpoint.log import LogEntry, is_pseudo
from repro.checkpoint.policy import CkpSet
from repro.checkpoint.replay import (
    LogItem,
    LogReplayer,
    RegularLogElement,
    ReplayPlan,
)
from repro.checkpoint.stable import Checkpoint
from repro.errors import ProtocolError, RecoveryError
from repro.net.message import (
    Abort,
    Message,
    MessageKind,
    RecoveryDone,
    RecoveryReply,
    RecoveryRequest,
)
from repro.types import (
    Dependency,
    ExecutionPoint,
    HoldState,
    ObjectStatus,
    ProcessId,
    Tid,
)

class RecoveryPhase(enum.Enum):
    """The phases of one recovery, in the order section 4.3 runs them:
    load the checkpoint, collect the peers' replies, replay the logged
    acquires, then done -- or aborted when multiple-failure detection
    (section 4.5) finds an unrecoverable dependency."""

    LOADING = "loading"
    COLLECTING = "collecting"
    REPLAYING = "replaying"
    DONE = "done"
    ABORTED = "aborted"


@dataclass
class RecoveryReplyData:
    """Everything one process contributes to another's recovery."""

    from_pid: ProcessId
    log_elements: list[RegularLogElement] = field(default_factory=list)
    dummy_elements: list[DummyEntry] = field(default_factory=list)
    depend_set: list[Dependency] = field(default_factory=list)
    dummy_set: list[Dependency] = field(default_factory=list)
    #: Collected from the frozen checkpoint-state view of a process that
    #: is itself recovering (see :attr:`ReplayPlan.concurrent_recoveries`).
    from_checkpoint: bool = False


def collect_recovery_data(
    from_pid: ProcessId,
    log_entries: list[LogEntry],
    dummy_entries: list[DummyEntry],
    dep_sets: dict[Tid, list[Dependency]],
    failed_pid: ProcessId,
    ckp_set: CkpSet,
) -> RecoveryReplyData:
    """Survivor-side data collection (section 4.3.1 steps 1-4).

    Operates on plain views of the survivor's structures so a recovering
    process can also answer with its checkpoint-state snapshot.
    """
    lts = ckp_set.lts_by_tid()
    reply = RecoveryReplyData(from_pid=from_pid)

    def after_checkpoint(point: ExecutionPoint) -> bool:
        """ep_ckp strictly precedes point (same recovering thread)."""
        if point.tid.pid != failed_pid:
            return False
        ckpt_lt = lts.get(point.tid)
        return ckpt_lt is not None and point.lt > ckpt_lt

    def at_or_after_checkpoint(point: ExecutionPoint) -> bool:
        """ep_ckp preceq point; pseudo-producers (lt 0) always qualify."""
        if point.tid.pid != failed_pid:
            return False
        if is_pseudo(point.tid):
            return True
        ckpt_lt = lts.get(point.tid)
        return ckpt_lt is not None and point.lt >= ckpt_lt

    # Step 1: versions produced locally, acquired by recovering threads
    # after their checkpoint.
    for entry in log_entries:
        for pair in entry.thread_set:
            if after_checkpoint(pair.ep_acq):
                reply.log_elements.append(
                    RegularLogElement(
                        entry=entry.clone(),
                        ep_acq=pair.ep_acq,
                        ep_prd=pair.ep_prd,
                        produced_in=from_pid,
                    )
                )

    # Step 2: dummy entries created in the failed process, stored here.
    for dummy in dummy_entries:
        if after_checkpoint(dummy.ep_acq):
            reply.dummy_elements.append(dummy)

    # Step 3: local threads' dependencies on versions produced in the
    # failed process at or after the checkpoint.
    for dep_set in dep_sets.values():
        for dep in dep_set:
            if not dep.local and at_or_after_checkpoint(dep.ep_prd):
                reply.depend_set.append(dep)

    # Step 4: dummy entries describing *our* local acquires that were
    # stored in the failed process.
    for dep_set in dep_sets.values():
        for dep in dep_set:
            if dep.local and dep.p_log == failed_pid:
                reply.dummy_set.append(dep)

    return reply


def answer_recovery_request(process: Any, message: Message, view: tuple,
                            from_checkpoint: bool = False) -> None:
    """Send ``process``'s RECOVERY_REPLY to ``message``'s sender.

    ``view`` is ``(log entries, dummy entries, depSets by thread)``: the
    live structures at a survivor, or -- ``from_checkpoint`` -- the frozen
    checkpoint-state snapshot at a process that is itself recovering.
    """
    log_entries, dummy_entries, dep_sets = view
    data = collect_recovery_data(
        from_pid=process.pid,
        log_entries=log_entries,
        dummy_entries=dummy_entries,
        dep_sets=dep_sets,
        failed_pid=message.payload.failed_pid,
        ckp_set=message.payload.ckp_set,
    )
    data.from_checkpoint = from_checkpoint
    process.send_raw(MessageKind.RECOVERY_REPLY, message.src, RecoveryReply(data))


def restore_process_state(process: Any, checkpoint: Checkpoint) -> None:
    """Restore a (fresh) process's directory, protocol and threads from a
    checkpoint image.  Shared by the paper's recovery and the coordinated
    baseline's global rollback."""
    process.directory.restore(checkpoint.objects)
    for tid, state in checkpoint.threads.items():
        thread = process.threads.get(tid)
        if thread is None:
            raise RecoveryError(
                f"P{process.pid}: checkpoint names unknown thread {tid}"
            )
        thread.restore_from(state)
    # Drop CREW holding state for acquires undone by mid-acquire restore
    # (the object snapshot predates the un-tick).
    for obj in process.directory:
        if obj.local_writer is not None:
            thread = process.threads.get(obj.local_writer)
            if thread is None or obj.obj_id not in thread.held:
                obj.local_writer = None
        stale_readers = set()
        for tid in sorted(obj.local_readers):
            thread = process.threads.get(tid)
            if thread is None or obj.obj_id not in thread.held:
                stale_readers.add(tid)
        obj.local_readers -= stale_readers
    # A mid-acquire thread is rolled back to re-issue its acquire, so any
    # object state its (partially processed) reply installed must be
    # undone too -- otherwise a rolled-back ownership transfer leaves two
    # owners.  The tell-tale is epDep pointing at the un-ticked acquire.
    for tid, state in checkpoint.threads.items():
        if not state.get("mid_acquire"):
            continue
        thread = process.threads[tid]
        syscall = thread.pending_syscall
        obj_id = getattr(syscall, "obj_id", None)
        if obj_id is None:
            continue
        obj = process.directory.get(obj_id)
        undone_ep = ExecutionPoint(tid, thread.lt + 1)
        if obj.ep_dep == undone_ep and obj.hold_state is HoldState.FREE:
            obj.status = ObjectStatus.NO_ACCESS
            obj.data = None
            obj.copy_set = set()
            obj.ep_dep = None
            hint = process.directory.spec(obj_id).home
            if hint == process.pid:
                peers = [p for p in process.peer_pids() if p != process.pid]
                hint = peers[0] if peers else process.pid
            obj.prob_owner = hint
    process.checkpoint_protocol.restore_from_checkpoint(checkpoint)


class RecoveryManager:
    """Drives the recovery of one failed process (section 4.3.2 + 4.5)."""

    def __init__(self, process: Any, checkpoint: Checkpoint) -> None:
        self.process = process
        self.checkpoint = checkpoint
        self.phase = RecoveryPhase.LOADING
        self._announce_phase(RecoveryPhase.LOADING)
        self.ckp_set: Optional[CkpSet] = None
        self._replies: dict[ProcessId, RecoveryReplyData] = {}
        self._pending_requests: list[Message] = []
        #: Frozen checkpoint-state view used to answer other recovering
        #: processes ("a recovering process replies as soon as its
        #: checkpoint is loaded") -- replay mutates the live structures.
        self._collection_view: Optional[tuple] = None
        self.report: Optional[DetectionReport] = None
        self.replayer: Optional[LogReplayer] = None
        self._deferred_piggyback: list[tuple[ProcessId, list, list]] = []
        self._deferred_dones: list[Message] = []

    def _set_phase(self, phase: RecoveryPhase) -> None:
        """Advance the recovery phase and announce it to the observers.

        The phase sequence is the protocol-state signal the fuzzer's
        coverage map feeds on (see :mod:`repro.fuzz.coverage`).
        """
        self.phase = phase
        self._announce_phase(phase)

    def _announce_phase(self, phase: RecoveryPhase) -> None:
        observers = self.process.observers
        if observers.active:
            observers.on_recovery_phase(self.process.pid, phase)

    def defer_piggyback(self, src: ProcessId, dummies: list, ckp_sets: list) -> None:
        """Piggyback arriving while the checkpoint is loading is applied
        right after the restore (it must survive, never be dropped)."""
        self._deferred_piggyback.append((src, list(dummies), list(ckp_sets)))

    def defer_done(self, message: Message) -> None:
        """RECOVERY_DONE from a peer while we recover ourselves: the purge
        must run against our fully restored/replayed structures."""
        self._deferred_dones.append(message)

    # ------------------------------------------------------------------
    # phase 1: load the checkpoint into the free processor
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.process.engine.enter_recovery_mode()
        self.process.engine.hold_normal_acquires = True
        self.process.checkpoint_protocol.suppress_checkpoints = True
        # Recovery reads the full materialized image even when checkpoint
        # *writes* were incremental deltas.
        load_time = self.process.stable_store.read_duration(
            self.checkpoint.full_size or self.checkpoint.size
        )
        self.process.kernel.schedule(
            load_time, self._loaded, label=f"recovery-load P{self.process.pid}"
        )

    def _loaded(self) -> None:
        process = self.process
        ckpt = self.checkpoint
        restore_process_state(process, ckpt)

        self.ckp_set = CkpSet(
            pid=process.pid,
            seq=ckpt.seq,
            points=tuple(
                ExecutionPoint(tid, lt) for tid, lt in sorted(ckpt.thread_lts.items())
            ),
        )
        self._collection_view = (
            [entry.clone() for entry in process.checkpoint_protocol.log],
            list(process.checkpoint_protocol.dummy_log),
            {tid: list(t.dep_set) for tid, t in process.threads.items()},
        )
        deferred, self._deferred_piggyback = self._deferred_piggyback, []
        for src, dummies, ckp_sets in deferred:
            process.checkpoint_protocol._apply_piggyback(src, dummies, ckp_sets)
        self._set_phase(RecoveryPhase.COLLECTING)
        # Answer recovery requests that arrived while loading.
        pending, self._pending_requests = self._pending_requests, []
        for message in pending:
            answer_recovery_request(process, message, self._collection_view,
                                    from_checkpoint=True)
        # Broadcast the recovery request (section 4.3.1).
        for peer in process.peer_pids():
            if peer != process.pid:
                self.send_request_to(peer)
        self._maybe_build()

    def send_request_to(self, peer: ProcessId) -> None:
        self.process.send_raw(
            MessageKind.RECOVERY_REQUEST,
            peer,
            RecoveryRequest(self.ckp_set, self.process.pid),
        )

    # ------------------------------------------------------------------
    # answering other recovering processes
    # ------------------------------------------------------------------
    def on_peer_request(self, message: Message) -> None:
        if self._collection_view is None:
            self._pending_requests.append(message)
        else:
            answer_recovery_request(self.process, message,
                                    self._collection_view, from_checkpoint=True)

    # ------------------------------------------------------------------
    # phase 2: collect replies, run detection, build the replay plan
    # ------------------------------------------------------------------
    def on_reply(self, message: Message) -> None:
        data: RecoveryReplyData = message.payload.data
        self._replies[data.from_pid] = data
        self._maybe_build()

    def _maybe_build(self) -> None:
        if self.phase is not RecoveryPhase.COLLECTING:
            return
        expected = {p for p in self.process.peer_pids() if p != self.process.pid}
        if not expected.issubset(self._replies.keys()):
            return
        self._set_phase(RecoveryPhase.REPLAYING)
        self._build_and_replay()

    def _build_and_replay(self) -> None:
        process = self.process
        assert self.ckp_set is not None
        ckpt_lts = self.ckp_set.lts_by_tid()

        log_lists: dict[Tid, list[LogItem]] = {tid: [] for tid in process.threads}
        depend_lists: dict[Tid, list[Dependency]] = {tid: [] for tid in process.threads}
        dummy_set: list[Dependency] = []

        for reply in self._replies.values():
            items: list[LogItem] = [*reply.log_elements, *reply.dummy_elements]
            for item in items:
                tid = item.ep_acq.tid
                if tid not in log_lists:
                    raise ProtocolError(f"LogSet element for unknown thread {tid}")
                log_lists[tid].append(item)
            for dep in reply.depend_set:
                tid = dep.ep_prd.tid
                if is_pseudo(tid):
                    # Dependency on a creation-time (V0) version: attach
                    # directly to the checkpointed entry in the final pass.
                    depend_lists.setdefault(tid, []).append(dep)
                elif tid in depend_lists:
                    depend_lists[tid].append(dep)
            dummy_set.extend(reply.dummy_set)

        # Order the lists (section 4.3.2) and run detection (section 4.5).
        prefixes = {}
        abort_reason: Optional[str] = None
        for tid, items in log_lists.items():
            items.sort(key=lambda item: item.lt)
            ckpt_lt = ckpt_lts.get(tid, 0)
            prefix = find_prefix(ckpt_lt, [item.lt for item in items])
            prefixes[tid] = prefix
            if prefix.truncated:
                del items[prefix.kept:]
            depend_lists.setdefault(tid, []).sort(key=lambda d: d.ep_prd.lt)
            bad = find_unrecoverable(depend_lists[tid], prefix.resume_lt)
            if bad is not None and abort_reason is None:
                abort_reason = (
                    f"thread {tid}: dependency on version of {bad.obj_id} "
                    f"produced at lt {bad.ep_prd.lt}, beyond recoverable "
                    f"prefix ending at lt {prefix.resume_lt}"
                )
        self.report = DetectionReport(prefixes=prefixes, abort_reason=abort_reason)
        for record in process.system.recovery_records:
            if record.pid == process.pid and record.finished_at is None:
                record.truncated = self.report.any_truncated

        if abort_reason is not None:
            if not process.system.aborted:
                # Theorem 2's clean abort, announced to every peer.
                process.system.abort(abort_reason, from_pid=process.pid)
                for peer in process.peer_pids():
                    if peer != process.pid:
                        process.send_raw(MessageKind.ABORT, peer,
                                         Abort(abort_reason))
            self._set_phase(RecoveryPhase.ABORTED)
            return

        plan = ReplayPlan(
            log_lists=log_lists,
            depend_lists=depend_lists,
            dummy_set=dummy_set,
            ckpt_lts=dict(ckpt_lts),
            concurrent_recoveries=any(
                reply.from_checkpoint for reply in self._replies.values()),
        )
        self.replayer = LogReplayer(process, plan, on_finished=self._replay_finished)
        process.replayer = self.replayer
        process.kernel.trace.emit(
            process.kernel.now, "recovery",
            f"P{process.pid} replaying "
            f"{sum(len(v) for v in plan.log_lists.values())} acquires",
        )
        for tid in sorted(process.threads):
            process.scheduler.resume_restored(process.threads[tid])
        self.replayer.after_event()

    # ------------------------------------------------------------------
    # phase 3: completion
    # ------------------------------------------------------------------
    def _replay_finished(self) -> None:
        process = self.process
        assert self.replayer is not None
        self.replayer.finalize()
        self._set_phase(RecoveryPhase.DONE)
        process.replayer = None
        process.recovery_manager = None
        process.checkpoint_protocol.suppress_checkpoints = False

        resume_lts = self.report.resume_lts() if self.report else {}
        process.system.note_rollback(resume_lts)
        for peer in process.peer_pids():
            if peer != process.pid:
                process.send_raw(
                    MessageKind.RECOVERY_DONE, peer, RecoveryDone(resume_lts)
                )
        for message in self._deferred_dones:
            process.checkpoint_protocol.apply_recovery_done(
                message.src, message.payload.resume_lts
            )
        self._deferred_dones = []
        process.engine.exit_recovery_mode()
        process.engine.release_held_acquires()
        process.checkpoint_protocol.start_timer()
        # Our own fresh requests may race ahead of our RECOVERY_DONE along
        # forwarded paths and be dropped by peers that still believe us
        # crashed; retry until unblocked.
        process.checkpoint_protocol.schedule_reissue()
        process.kernel.trace.emit(
            process.kernel.now, "recovery", f"P{process.pid} recovery complete"
        )
        process.system.note_recovery_complete(process.pid)
