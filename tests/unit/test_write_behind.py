"""The FileBackend's write-behind contract: file operations run on one
writer thread per store, in commit order, and no call that drives the
cluster returns before the disk has caught up.

The disk is read here with plain ``open`` and ``fmt.peek_header``:
every backend read method flushes first, so reading through one would
hide a missing flush."""

import os
import sys
import threading
import time

import pytest

from repro import CheckpointPolicy, ClusterConfig, DisomSystem
from repro.storage import format as fmt
from repro.storage.backend import SLOT_NAMES, FileBackend, _Writer
from repro.workloads import SyntheticWorkload
from tests.unit.test_storage import make_checkpoint

PROCESSES = 3


class RecordingBackend(FileBackend):
    """A FileBackend that remembers what the protocol committed."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        #: pid -> seq of the last commit that returned True.
        self.last_committed: dict[int, int] = {}
        #: (pid, seq) of every commit call, in call order.
        self.commit_calls: list[tuple[int, int]] = []

    def commit(self, pid, seq):
        self.commit_calls.append((pid, seq))
        committed = super().commit(pid, seq)
        if committed:
            self.last_committed[pid] = seq
        return committed


def build(store_dir, backend=None, processes=PROCESSES):
    system = DisomSystem(
        ClusterConfig(processes=processes, seed=7),
        CheckpointPolicy(interval=10.0),
        storage_backend=backend or FileBackend(store_dir),
    )
    SyntheticWorkload(rounds=10).setup(system)
    return system


def slot_seqs_on_disk(root: str, pid: int) -> dict[str, int]:
    """Slot name -> the seq its header names, for each intact header."""
    seqs = {}
    for slot in SLOT_NAMES:
        path = os.path.join(root, f"p{pid}", slot)
        try:
            with open(path, "rb") as handle:
                header = fmt.peek_header(handle.read(fmt.HEADER_BYTES), path)
        except FileNotFoundError:
            continue
        if header is not None:
            seqs[slot] = header.seq
    return seqs


def newest_seq_on_disk(root: str, pid: int):
    return max(slot_seqs_on_disk(root, pid).values(), default=None)


@pytest.fixture
def slow_disk(monkeypatch):
    """Slow every fsync and rename so the writer lags the simulation,
    and record the stage renames in the order they happen."""
    renames: list[str] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        time.sleep(0.002)
        real_fsync(fd)

    def replace(src, dst):
        time.sleep(0.001)
        if ".stage-" in os.path.basename(src):
            renames.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return renames


def stage_key(path: str) -> tuple[int, int]:
    """(pid, seq) of a ``p<pid>/.stage-<seq>.tmp`` path."""
    pid_dir, name = os.path.split(path)
    return (int(os.path.basename(pid_dir)[1:]),
            int(name[len(".stage-"):-len(".tmp")]))


class TestFlushPoints:
    def test_run_until_and_checkpoint_all_leave_the_disk_caught_up(
            self, tmp_path, slow_disk):
        root = str(tmp_path / "store")
        backend = RecordingBackend(root)
        system = build(root, backend)
        system.run(until=45.0)
        assert backend.last_committed
        for pid in range(PROCESSES):
            assert newest_seq_on_disk(root, pid) == backend.last_committed[pid]
        system.checkpoint_all()
        for pid in range(PROCESSES):
            assert newest_seq_on_disk(root, pid) == backend.last_committed[pid]

    def test_a_completed_run_leaves_the_disk_caught_up(self, tmp_path,
                                                       slow_disk):
        root = str(tmp_path / "store")
        backend = RecordingBackend(root)
        assert build(root, backend).run().completed
        for pid in range(PROCESSES):
            assert newest_seq_on_disk(root, pid) == backend.last_committed[pid]

    def test_no_writer_thread_outlives_run(self, tmp_path, slow_disk):
        before = set(threading.enumerate())
        system = build(str(tmp_path / "store"))
        system.run(until=45.0)
        assert set(threading.enumerate()) <= before
        system.run()
        assert set(threading.enumerate()) <= before


class TestOrdering:
    def test_renames_follow_commit_order_across_pids(self, tmp_path,
                                                     slow_disk):
        root = str(tmp_path / "store")
        backend = RecordingBackend(root)
        assert build(root, backend, processes=4).run().completed
        assert len({pid for pid, _ in backend.commit_calls}) == 4
        assert [stage_key(path) for path in slow_disk] == backend.commit_calls


class TestWriterErrors:
    def test_a_failed_rename_is_raised_by_the_flushing_call(
            self, tmp_path, monkeypatch):
        def broken_replace(src, dst):
            raise OSError(28, "No space left on device")

        system = build(str(tmp_path / "store"))
        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="No space left"):
            system.run(until=45.0)

    def test_a_failed_rename_is_raised_by_the_next_read(self, tmp_path,
                                                        monkeypatch):
        backend = FileBackend(str(tmp_path / "store"), fsync=False)

        def broken_replace(src, dst):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "replace", broken_replace)
        backend.begin_write(make_checkpoint(seq=1))
        # Decided on the calling thread: the commit itself succeeds.
        assert backend.commit(0, 1) is True
        with pytest.raises(OSError, match="Input/output error"):
            backend.read_latest(0)
        # Raised once, not dropped and not repeated.
        monkeypatch.undo()
        with pytest.raises(KeyError):
            backend.read_latest(0)


class TestRecoveryReadsOnce:
    def test_a_crash_recovery_reads_one_slot_file(self, tmp_path):
        # P1 crashes at 60 and is detected at 65, when recovery loads
        # its newest image; nothing of P1 commits again before 66.
        root = str(tmp_path / "store")
        system = DisomSystem(
            ClusterConfig(processes=4, seed=7, store_dir=root),
            CheckpointPolicy(interval=20.0),
        )
        SyntheticWorkload().setup(system)
        system.inject_crash(1, 60.0)
        result = system.run(until=66.0)
        assert result.storage["reads"] == 1
        seqs = slot_seqs_on_disk(root, 1)
        newest = max(seqs, key=seqs.__getitem__)
        size = os.path.getsize(os.path.join(root, "p1", newest))
        assert result.storage["bytes_read"] == size


class TestWriterQueue:
    def test_every_operation_runs_once_in_order_under_preemption(self):
        # Four stores, each fed by its own thread, with the interpreter
        # switching threads as often as it can: every submit crosses the
        # queue bound or a writer restart after a flush.
        count = 300
        writers = [_Writer() for _ in range(4)]
        logs: list[list[int]] = [[] for _ in writers]

        def produce(writer, log):
            for i in range(count):
                writer.submit(log.append, i)
                if i % 97 == 0:
                    writer.flush()
            writer.flush()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=produce, args=pair)
                       for pair in zip(writers, logs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert logs == [list(range(count))] * len(writers)
