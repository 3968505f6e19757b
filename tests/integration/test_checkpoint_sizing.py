"""Replay prefixes are sized by running totals, never by walking history.

``Checkpoint.capture`` hands ``compute_size`` each thread's running
``Thread.records_bytes`` instead of letting it walk every replay record
of every thread in every image.  The generic walk,
``payload_size(checkpoint.threads)``, is the oracle: on every image of
every shape below (failure-free, a DiSOM crash whose restore resets the
totals, the coordinated baseline's global rollback, incremental
checkpoints) both must give the same bytes, and the byte totals of the
three synthetic shapes stay pinned.  A count-based guard proves each
record is sized exactly once.
"""

import dataclasses
import random

import pytest

import repro.threads.thread as thread_module
from repro.api import run_workload
from repro.checkpoint.policy import CheckpointPolicy
from repro.checkpoint.stable import Checkpoint
from repro.cluster.config import ClusterConfig
from repro.cluster.system import DisomSystem
from repro.net.sizing import payload_size
from repro.threads.program import Program
from repro.threads.syscalls import AcquireRead, AcquireWrite, Compute, Release
from repro.threads.thread import Thread
from repro.types import Tid
from repro.workloads import SyntheticWorkload

SHAPES = {
    "failure-free": dict(processes=8),
    "disom-crash": dict(processes=4, crashes=[(1, 300.0)]),
    "coordinated-crash": dict(processes=4, crashes=[(1, 300.0)],
                              baseline="coordinated"),
}

#: (checkpoint bytes, stable bytes) of ``SyntheticWorkload(rounds=120,
#: objects=8)`` at seed 7, interval 40, with every image checked against
#: the walk.
PINNED_BYTES = {
    "failure-free": (2_495_409, 2_495_409),
    "disom-crash": (903_369, 987_172),
    "coordinated-crash": (84_279, 133_671),
}


def _run(shape: str):
    return run_workload(SyntheticWorkload(rounds=120, objects=8), seed=7,
                        interval=40, **SHAPES[shape])


@pytest.fixture
def oracle(monkeypatch):
    """Check every production image against the generic walk; returns
    the ``(pid, taken_at)`` of each image checked."""
    checked = []
    original = Checkpoint.compute_size

    def compute_size(self, delta_bytes=None):
        size = original(self, delta_bytes)
        if self.record_bytes is not None:
            walked = dataclasses.replace(self, record_bytes=None)
            original(walked, delta_bytes)
            assert self.full_size == walked.full_size
            for tid, state in self.threads.items():
                assert self.record_bytes[tid] == sum(
                    payload_size(record) for record in state["records"])
            checked.append((self.pid, self.taken_at))
        return size

    monkeypatch.setattr(Checkpoint, "compute_size", compute_size)
    return checked


def test_running_totals_equal_the_walk(oracle):
    for shape in sorted(SHAPES):
        oracle.clear()
        system, result = _run(shape)
        assert result.completed and not result.aborted, shape
        assert len(oracle) == system.stable_store.writes(), shape
        assert (result.metrics.total_checkpoint_bytes,
                result.stable_bytes) == PINNED_BYTES[shape], shape
        if SHAPES[shape].get("crashes"):
            # The victim's totals were reset by its restore and grew again.
            assert any(pid == 1 and at > 300.0 for pid, at in oracle), shape

    oracle.clear()
    workload = SyntheticWorkload(rounds=120, objects=8)
    system = DisomSystem(ClusterConfig(processes=4, seed=7),
                         CheckpointPolicy(interval=40.0, incremental=True))
    workload.setup(system)
    system.inject_crash(1, at_time=300.0)
    result = system.run()
    assert result.completed and workload.verify(result).ok
    # Each incremental image is sized twice: in full, then with its delta.
    assert len(oracle) == 2 * system.stable_store.writes()
    assert any(pid == 1 and at > 300.0 for pid, at in oracle)


def test_each_record_is_sized_once(monkeypatch):
    sized = []

    def counting_payload_size(record):
        sized.append(id(record))
        return payload_size(record)

    monkeypatch.setattr(thread_module, "payload_size", counting_payload_size)
    system, result = run_workload("synthetic")
    assert result.completed and system.stable_store.writes() > 4
    threads = [thread for process in system.processes.values()
               for thread in process.threads.values()]
    for thread in threads:
        thread.records_bytes()  # size what the last image did not cover
    appended = sum(len(thread.records) for thread in threads)
    assert appended > 0
    assert len(sized) == len(set(sized)) == appended


def _body(ctx):
    for step in range(6):
        yield AcquireWrite("x")
        yield Compute(1.0)
        yield Release.of("x", [step])
        yield AcquireRead("y")
        yield Release("y")


def _walked(records) -> int:
    return sum(payload_size(record) for record in records)


def test_thread_total_survives_append_restore_append():
    def thread():
        return Thread(Tid(0, 0), Program("sized", _body, {}),
                      lambda fresh: random.Random(1))

    original = thread()
    original.start()
    for _ in range(7):
        original.resume(list(range(len(original.records))))
        assert original.records_bytes() == _walked(original.records)
    state = original.checkpoint_state()
    for _ in range(4):
        original.resume({"grown": len(original.records)})
    assert original.records_bytes() == _walked(original.records)

    clone = thread()
    clone.restore_from(state)
    assert clone.records_bytes() == _walked(state["records"])
    for _ in range(5):
        clone.resume(["after", "restore"])
    assert clone.records_bytes() == _walked(clone.records)
    # Restoring a thread that has a total starts the total afresh.
    original.restore_from(state)
    assert original.records_bytes() == _walked(state["records"])


#: Incremental checkpointing (extension A4) of ``SyntheticWorkload(rounds=120,
#: objects=8)`` on 4 processes, seed 7, interval 40: (images, bytes
#: written, full image bytes), summed over every image, without and with
#: a crash of P1 at t=300.  Re-recorded when a delta's dummy entries
#: became charged their ``wire_bytes`` (83-91 B each), as the full image
#: charges them, instead of a flat 48 B; the write latency of the larger
#: deltas moves the later images, hence their full sizes too.
PINNED_INCREMENTAL = {
    False: (56, 225_952, 934_614),
    True: (59, 241_726, 987_392),
}


@pytest.mark.parametrize("crash", sorted(PINNED_INCREMENTAL))
def test_incremental_deltas_are_pinned(crash):
    """A4's delta sizes replay records from the running totals; each
    image's ``size`` and ``full_size`` stay what the walk gave."""
    workload = SyntheticWorkload(rounds=120, objects=8)
    system = DisomSystem(ClusterConfig(processes=4, seed=7),
                         CheckpointPolicy(interval=40.0, incremental=True))
    workload.setup(system)
    if crash:
        system.inject_crash(1, at_time=300.0)
    images = []
    begin_save = system.stable_store.begin_save

    def recording_begin_save(checkpoint):
        images.append((checkpoint.size, checkpoint.full_size))
        return begin_save(checkpoint)

    system.stable_store.begin_save = recording_begin_save
    result = system.run()
    assert result.completed and workload.verify(result).ok
    assert any(size < full for size, full in images)
    assert (len(images), sum(size for size, _ in images),
            sum(full for _, full in images)) == PINNED_INCREMENTAL[crash]
