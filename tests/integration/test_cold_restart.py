"""Integration tests for the durable store: a *fresh* DisomSystem pointed
at an existing store directory recovers the whole cluster from disk
(cold restart), including falling back to the previous slot when the
latest on-disk image is corrupt."""

import os

import pytest

from repro.errors import ConfigError
from repro.storage.backend import FileBackend

from tests.conftest import counter_system, incrementer, make_system

PROCESSES = 3
ROUNDS = 6
EXPECTED = PROCESSES * ROUNDS


def durable_counter_system(store_dir: str):
    return counter_system(
        processes=PROCESSES, rounds=ROUNDS, seed=7, interval=20.0,
        storage_backend=FileBackend(store_dir, fsync=False),
    )


def run_and_kill(store_dir: str) -> None:
    """Run partway, cut two cluster-wide checkpoints, abandon the system
    (stands in for the hard process kill of examples/durable_restart.py)."""
    system = durable_counter_system(store_dir)
    system.run(until=12.0)
    system.checkpoint_all()
    system.checkpoint_all()  # both slots now hold the same consistent cut


def corrupt_latest(store_dir: str, pid: int) -> None:
    backend = FileBackend(store_dir, fsync=False)
    latest = [info for info in backend.slots(pid) if info.latest]
    assert latest
    path = os.path.join(store_dir, f"p{pid}", latest[0].slot)
    with open(path, "r+b") as handle:
        blob = handle.read()
        index = len(blob) // 2
        handle.seek(index)
        handle.write(bytes([blob[index] ^ 0xFF]))


class TestColdRestart:
    def test_fresh_system_recovers_from_disk(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_and_kill(store_dir)

        restarted = durable_counter_system(store_dir)
        restarted.recover_all_from_storage()
        result = restarted.run()
        assert result.completed
        assert not result.invariant_violations
        assert result.final_objects["counter"] == EXPECTED
        # Every process really came off the disk.
        assert result.storage["backend"] == "file"
        assert result.storage["reads"] >= PROCESSES
        assert len(result.recoveries) == PROCESSES
        assert all(r.finished_at is not None for r in result.recoveries)

    def test_corrupt_latest_slot_falls_back_and_recovers(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_and_kill(store_dir)
        corrupt_latest(store_dir, pid=0)

        restarted = durable_counter_system(store_dir)
        restarted.recover_all_from_storage()
        result = restarted.run()
        assert result.completed
        assert not result.invariant_violations
        assert result.final_objects["counter"] == EXPECTED
        assert result.storage["crc_failures"] >= 1
        assert result.storage["slot_fallbacks"] >= 1

    def test_completed_run_leaves_verifiable_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        system = durable_counter_system(store_dir)
        result = system.run()
        assert result.completed
        # End-of-run flush: nothing staged, every slot CRC-clean.
        backend = FileBackend(store_dir, fsync=False)
        reports = backend.verify()
        assert reports and all(info.ok for info in reports)
        assert backend.gc() == 0

    def test_recover_requires_unstarted_system(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_and_kill(store_dir)
        system = durable_counter_system(store_dir)
        system.run(until=1.0)
        with pytest.raises(ConfigError):
            system.recover_all_from_storage()

    def test_checkpoint_all_requires_started_system(self, tmp_path):
        system = durable_counter_system(str(tmp_path / "store"))
        with pytest.raises(ConfigError):
            system.checkpoint_all()

    def test_restart_preserves_partial_progress(self, tmp_path):
        # The recovered run replays from the cut, not from scratch: the
        # counter value at the cut is part of the checkpointed state.
        store_dir = str(tmp_path / "store")
        system = durable_counter_system(store_dir)
        system.run(until=12.0)
        system.checkpoint_all()
        before = system.stable_store.load(0)
        assert before.objects  # object table travels with the image

        restarted = durable_counter_system(store_dir)
        restarted.recover_all_from_storage()
        result = restarted.run()
        assert result.completed
        assert result.final_objects["counter"] == EXPECTED


class TestDurableCrashRecovery:
    def test_in_run_crash_recovery_reads_from_disk(self, tmp_path):
        # The ordinary (hot) recovery path also works against the durable
        # backend: crash one process mid-run, recover from the file store.
        system = make_system(
            processes=3, interval=10.0,
            storage_backend=FileBackend(str(tmp_path / "store"), fsync=False))
        system.add_object("counter", initial=0, home=0)
        for pid in range(3):
            system.spawn(pid, incrementer(rounds=ROUNDS))
        system.inject_crash(1, at_time=15.0)
        result = system.run()
        assert result.completed
        assert result.final_objects["counter"] == EXPECTED
        assert result.metrics.total_survivor_rollbacks == 0
        assert result.storage["backend"] == "file"
        assert result.storage["reads"] >= 1
