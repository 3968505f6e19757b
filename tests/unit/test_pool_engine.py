"""The four worker-pool rules, each checked through BOTH ways in.

DESIGN.md section 2.9 states the rules of :class:`PoolService`.  Every
test body here runs twice: ``[PoolService]`` drives its tasks through
``submit``/``result`` (the server's way in), ``[map]`` through ``map``
(the experiment runner's and the fuzzer's), so the two paths cannot
drift apart.

Task functions are module-level on purpose: spawn-context workers
import them by reference.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.parallel import PoolService, QueueFullError, WorkerFailure


def _echo(value):
    return value


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


def _answer_then_die(gate_path):
    """Wait for the gate file, return normally, and take the whole
    worker process down shortly after the result has been sent."""
    while not os.path.exists(gate_path):
        time.sleep(0.01)
    threading.Timer(0.3, os._exit, args=(3,)).start()
    return "sent before dying"


class _Face:
    """One pool plus the way its tasks go in."""

    def __init__(self, via: str, **options) -> None:
        self.via = via
        self.pool = PoolService(**options)

    def run_all(self, calls):
        """Run ``[(fn, args), ...]``; outcomes in submission order."""
        if self.via == "map":
            # ``map`` takes one function, so a mixed batch goes through
            # a dispatcher; a filler keeps a single call off the inline
            # path.
            batch = calls + [(_echo, ("filler",))] * (len(calls) < 2)
            return self.pool.map(_dispatch, batch)[:len(calls)]
        tickets = [self.pool.submit(fn, args) for fn, args in calls]
        return [self.pool.result(ticket, wait=120.0) for ticket in tickets]

    def workers(self) -> int:
        return self.pool.stats()["workers"]


def _dispatch(fn, args):
    return fn(*args)


@pytest.fixture(params=["PoolService", "map"])
def face(request):
    faces = []

    def build(**options):
        faces.append(_Face(request.param, **options))
        return faces[-1]

    yield build
    for built in faces:
        built.pool.close()


def _wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_rule_a_worker_count_only_grows_until_close(face):
    pool = face(jobs=3)
    assert pool.workers() == 0                        # nothing until asked
    assert pool.run_all([(_echo, (i,)) for i in range(2)]) == [0, 1]
    assert pool.workers() == 2                        # min(jobs, unfinished)
    assert pool.run_all([(_echo, (i,)) for i in range(6)]) == list(range(6))
    assert pool.workers() == 3                        # capped at jobs
    assert pool.run_all([(_echo, (i,)) for i in range(2)]) == [0, 1]
    assert pool.workers() == 3                        # none retired
    assert pool.pool.worker_restarts == 0
    pool.pool.close()
    assert pool.workers() == 0


def test_rule_b_a_result_sent_before_the_worker_died_wins(face, tmp_path):
    pool = face(jobs=2)
    gate = tmp_path / "go"
    outcomes = []
    runner = threading.Thread(target=lambda: outcomes.extend(
        pool.run_all([(_answer_then_die, (str(gate),))])))
    runner.start()
    assert _wait_until(lambda: pool.pool.stats()["in_flight"] == 1)
    # Park the collector on its lock so the worker's ``done`` and its
    # death both happen unobserved: the next sweep finds a dead worker
    # that still "runs" the task, with the result sitting in the queue.
    with pool.pool._lock:
        time.sleep(0.2)
        gate.write_text("go")
        time.sleep(1.0)
    runner.join(timeout=60.0)
    assert outcomes == ["sent before dying"]
    assert _wait_until(lambda: pool.pool.worker_restarts == 1)


def test_rule_b_a_deadline_kill_stays_a_timeout(face):
    pool = face(jobs=2, timeout=0.5)
    slow, fast = pool.run_all([(_sleep_then, (30.0, "late")),
                               (_echo, ("fast",))])
    assert fast == "fast"
    assert isinstance(slow, WorkerFailure)
    assert slow.kind == "timeout" and slow.error_type == "TimeoutError"
    assert "deadline of 0.5s" in slow.message
    assert pool.pool.worker_restarts == 1


def test_rule_c_bad_result_queue_messages_are_counted_and_skipped(face):
    pool = face(jobs=2)
    assert pool.run_all([(_echo, (1,))]) == [1]      # the pool is up
    for garbage in (("unknown-tag",), None, ("done", 0), 17):
        pool.pool._result_queue.put(garbage)
    assert _wait_until(lambda: pool.pool.stats()["collector_errors"] >= 4)
    assert pool.run_all([(_echo, (i,)) for i in range(4)]) == [0, 1, 2, 3]


def test_rule_d_admission_is_bounded(face):
    pool = face(jobs=2, max_pending=2)
    with pytest.raises(QueueFullError):
        pool.run_all([(_sleep_then, (0.3, i)) for i in range(3)])
    # ``submit`` admits task by task; ``map`` admits the batch or none.
    admitted = 2 if pool.via == "PoolService" else 0
    assert pool.pool.stats()["tasks_submitted"] == admitted
    # What was admitted still finishes, and admission reopens.
    assert _wait_until(lambda: pool.pool.stats()["pending"] == 0)
    assert pool.run_all([(_echo, (i,)) for i in range(2)]) == [0, 1]
