"""Coordinated (blocking) checkpointing baseline (Koo & Toueg family).

The scheme the paper positions itself against (section 2): "In coordinated
checkpoint schemes, processes coordinate to ensure that the set of process
checkpoints represents a consistent state of the system.  These systems
tolerate multiple failures at the expense of checkpoint coordination" --
and at the expense of process autonomy and of rolling back *survivors* on
recovery.

Protocol (blocking two-phase, coordinator = process 0):

1. REQUEST: the coordinator starts a round; every participant *pauses*
   (new acquires are held) and drains its in-flight acquires;
2. READY: sent once locally quiescent (no outstanding acquire, no pending
   invalidation acks) -- because nothing new starts, global all-READY
   implies empty channels, i.e. a consistent cut;
3. COMMIT: everyone snapshots its full state to stable storage and
   resumes; ACK closes the round.

Recovery from any number of simultaneous failures is a *global rollback*:
every process -- including the survivors -- restores the last committed
snapshot and re-executes.  In-flight messages predating the rollback are
discarded (the committed cut had empty channels).  The experiment harness
reads off: coordination messages (4(P-1) per round), blocked time, and
survivor rollbacks (always P-1, versus the paper's pessimistic 0).

Limitation (documented): quiescence-based pausing assumes programs do not
hold one object across an acquire of another -- true of every shipped
workload.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines.base import FaultToleranceProtocol
from repro.checkpoint.stable import Checkpoint
from repro.net.message import CoordRound, Message, MessageKind
from repro.types import ProcessId


class CoordinatedProtocol(FaultToleranceProtocol):
    """See module docstring."""

    name = "coordinated"

    def __init__(self, process: Any, interval: float = 200.0,
                 poll_interval: float = 2.0) -> None:
        super().__init__(process)
        self.interval = interval
        self.poll_interval = poll_interval
        self.epoch = 0
        self.paused = False
        self._pause_started: Optional[float] = None
        self.blocked_time = 0.0
        self.rounds_completed = 0
        #: Messages sent before this time are stale (post-rollback filter).
        self.rollback_floor = -1.0
        # -- coordinator state ------------------------------------------
        self._round_active = False
        self._ready: set[ProcessId] = set()
        self._acked: set[ProcessId] = set()
        self._timer = None
        #: epoch -> this process's snapshot at that epoch (the last two).
        self.snapshots: dict[int, Checkpoint] = {}

    @property
    def is_coordinator(self) -> bool:
        return self.pid == min(self.process.peer_pids())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # Epoch-0 snapshot so a rollback target always exists.
        self._snapshot()
        if self.is_coordinator:
            self._arm_timer()

    def _arm_timer(self) -> None:
        self._timer = self.process.kernel.schedule(
            self.interval, self._start_round, label=f"coord-round P{self.pid}"
        )

    def stop_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # round protocol
    # ------------------------------------------------------------------
    def _start_round(self) -> None:
        self._timer = None
        if not self.process.alive or self._round_active:
            return
        self._round_active = True
        self._ready = set()
        self._acked = set()
        for peer in self.process.peer_pids():
            if peer != self.pid:
                self.process.send_raw(
                    MessageKind.COORD_CKPT_REQUEST, peer, CoordRound(self.epoch + 1)
                )
        self._begin_pause()

    def _on_request(self, message: Message) -> None:
        self._begin_pause()

    def _on_ready(self, message: Message) -> None:
        self._ready.add(message.src)
        self._maybe_commit()

    def _on_commit(self, message: Message) -> None:
        self._commit()
        self.process.send_raw(
            MessageKind.COORD_CKPT_ACK, message.src, CoordRound(self.epoch)
        )

    def _on_ack(self, message: Message) -> None:
        self._acked.add(message.src)
        self._maybe_finish_round()

    handlers = {
        MessageKind.COORD_CKPT_REQUEST: _on_request,
        MessageKind.COORD_CKPT_READY: _on_ready,
        MessageKind.COORD_CKPT_COMMIT: _on_commit,
        MessageKind.COORD_CKPT_ACK: _on_ack,
    }

    # -- participant side ------------------------------------------------
    def _begin_pause(self) -> None:
        if self.paused:
            return
        self.paused = True
        self._pause_started = self.process.kernel.now
        self.process.engine.hold_normal_acquires = True
        self._poll_quiescence()

    def _poll_quiescence(self) -> None:
        if not self.process.alive or not self.paused:
            return
        if self._quiescent():
            if self.is_coordinator:
                self._ready.add(self.pid)
                self._maybe_commit()
            else:
                self.process.send_raw(
                    MessageKind.COORD_CKPT_READY, 0, CoordRound(self.epoch + 1)
                )
            return
        self.process.kernel.schedule(
            self.poll_interval, self._poll_quiescence,
            label=f"coord-poll P{self.pid}",
        )

    def _quiescent(self) -> bool:
        engine = self.process.engine
        if engine.has_pending_acks():
            return False
        return all(t.wait_obj is None for t in self.process.threads.values())

    def _commit(self) -> None:
        self.epoch += 1
        self._snapshot()
        self._resume()

    def _resume(self) -> None:
        if not self.paused:
            return
        self.paused = False
        if self._pause_started is not None:
            self.blocked_time += self.process.kernel.now - self._pause_started
            self._pause_started = None
        self.process.engine.release_held_acquires()

    # -- coordinator side --------------------------------------------------
    def _maybe_commit(self) -> None:
        if not self._round_active:
            return
        expected = set(self.process.peer_pids())
        if self._ready != expected:
            return
        for peer in sorted(expected):
            if peer != self.pid:
                self.process.send_raw(
                    MessageKind.COORD_CKPT_COMMIT, peer, CoordRound(self.epoch + 1)
                )
        self._commit()
        self._acked.add(self.pid)
        self._maybe_finish_round()

    def _maybe_finish_round(self) -> None:
        if not self._round_active:
            return
        if self._acked != set(self.process.peer_pids()):
            return
        self._round_active = False
        self.rounds_completed += 1
        self._arm_timer()

    # ------------------------------------------------------------------
    # snapshots / rollback
    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        checkpoint = Checkpoint.capture(self.process, self.epoch, [], [])
        # A crash can strike mid-round, leaving some processes one epoch
        # ahead; recovery rolls back to the highest epoch available at
        # *every* process, so the previous epoch must be retained too.
        self.snapshots[self.epoch] = checkpoint
        self.snapshots.pop(self.epoch - 2, None)
        self.record_checkpoint(checkpoint.size, f"coordinated-e{self.epoch}")

    def filter_incoming(self, message: Message) -> bool:
        # Post-rollback: every message put on the wire before the rollback
        # belongs to the undone execution (the committed cut itself had
        # empty channels, so nothing valid can be lost by dropping).
        return message.send_time >= self.rollback_floor

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "rounds": self.rounds_completed,
            "blocked_time": self.blocked_time,
            "checkpoints": self.metrics.checkpoints.count,
            "checkpoint_bytes": self.metrics.checkpoints.bytes_total,
            "epoch": self.epoch,
        }

    # ------------------------------------------------------------------
    # recovery: global rollback (invoked by the system on crash detection)
    # ------------------------------------------------------------------
    def recover_crashed(self, system: Any, crashed_pid: ProcessId) -> None:
        from repro.checkpoint.recovery import restore_process_state

        now = system.kernel.now
        system.claim_spare(crashed_pid)
        # Roll back to the last *globally complete* round: the highest
        # epoch for which every process has a snapshot.
        target_epoch = min(max(system.processes[pid].checkpoint_protocol.snapshots)
                           for pid in system.all_pids())
        for pid in system.all_pids():
            old = system.processes[pid]
            survivor = old.alive
            if survivor:
                old.alive = False
                old.scheduler.kill()
                old.checkpoint_protocol.stop_timer()
            snapshots = old.checkpoint_protocol.snapshots
            process = system.rebuild_process(pid)
            # The rebuilt process keeps the snapshots: a later crash
            # rolls back to them again.
            process.checkpoint_protocol.snapshots = snapshots
            checkpoint = snapshots[target_epoch]
            restore_process_state(process, checkpoint)
            # The cut was taken at quiescence and pre-rollback messages are
            # dropped (rollback_floor), so no acquire at or before it is
            # ever requested again: only grants past it are void.
            system.note_rollback(checkpoint.thread_lts)
            protocol = process.checkpoint_protocol
            protocol.epoch = checkpoint.seq
            protocol.rollback_floor = now
            if survivor:
                process.metrics.survivor_rollbacks += 1
            for tid in sorted(process.threads):
                process.scheduler.resume_restored(process.threads[tid])
            if protocol.is_coordinator:
                protocol._arm_timer()
        system.kernel.trace.emit(
            now, "recovery",
            f"coordinated global rollback to epoch "
            f"{system.processes[crashed_pid].checkpoint_protocol.epoch} "
            f"after crash of P{crashed_pid}",
        )
        system.note_recovery_complete(crashed_pid)
