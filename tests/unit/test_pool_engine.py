"""The four worker-engine rules, each checked through BOTH pool faces.

``RunPool`` (batch ``map``) and ``PoolService`` (request/response) share
one :class:`~repro.parallel.engine.WorkerEngine`; DESIGN.md section 2.9
states the four rules where the two used to differ.  Every test body
here runs once per face, so the faces cannot drift apart again.

Task functions are module-level on purpose: spawn-context workers
import them by reference.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.parallel import Call, PoolService, RunPool, WorkerFailure


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
    """Uniform driver over one pool face."""

    def __init__(self, kind: str, jobs: int, timeout=None) -> None:
        self.kind = kind
        if kind == "RunPool":
            self.pool = RunPool(jobs=jobs, timeout=timeout)
            self.engine = self.pool._engine
        else:
            self.pool = PoolService(jobs=jobs, timeout=timeout,
                                    max_pending=64)
            self.engine = self.pool

    def run_all(self, calls):
        """Run ``[(fn, args), ...]``; outcomes in submission order."""
        if self.kind == "RunPool":
            # A filler keeps single-call batches off the serial path.
            batch = [Call(fn, args) for fn, args in calls] + [
                Call(_echo, ("filler",))] * (len(calls) < 2)
            return self.pool.map(batch)[:len(calls)]
        tickets = [self.pool.submit(fn, args) for fn, args in calls]
        return [self.pool.result(ticket, wait=120.0) for ticket in tickets]

    def close(self) -> None:
        self.pool.close()


@pytest.fixture(params=["RunPool", "PoolService"])
def face(request):
    faces = []

    def build(jobs, timeout=None):
        faces.append(_Face(request.param, jobs, timeout))
        return faces[-1]

    yield build
    for built in faces:
        built.close()


def _wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_rule_a_worker_count_only_grows_until_close(face):
    pool = face(jobs=3)
    # The server face asks for its workers up front (a call the batch
    # face simply does not make); from there on the rule is the same.
    prewarmed = 3 if pool.kind == "PoolService" else 0
    assert pool.engine.workers == prewarmed
    assert pool.run_all([(_echo, (i,)) for i in range(2)]) == [0, 1]
    assert pool.engine.workers == max(prewarmed, 2)   # min(jobs, unfinished)
    assert pool.run_all([(_echo, (i,)) for i in range(6)]) == list(range(6))
    assert pool.engine.workers == 3                   # capped at jobs
    assert pool.run_all([(_echo, (i,)) for i in range(2)]) == [0, 1]
    assert pool.engine.workers == 3                   # none retired
    assert pool.engine.worker_restarts == 0
    pool.close()
    assert pool.engine.workers == 0


def test_rule_b_a_result_sent_before_the_worker_died_wins(face, tmp_path):
    pool = face(jobs=2)
    gate = tmp_path / "go"
    outcomes = []
    runner = threading.Thread(target=lambda: outcomes.extend(
        pool.run_all([(_answer_then_die, (str(gate),))])))
    runner.start()
    assert _wait_until(lambda: pool.engine.in_flight == 1)
    # Park the collector on its lock so the worker's ``done`` and its
    # death both happen unobserved: the next sweep finds a dead worker
    # that still "runs" the task, with the result sitting in the queue.
    with pool.engine._lock:
        time.sleep(0.2)
        gate.write_text("go")
        time.sleep(1.0)
    runner.join(timeout=60.0)
    assert outcomes == ["sent before dying"]
    assert _wait_until(lambda: pool.engine.worker_restarts == 1)


def test_rule_b_a_deadline_kill_stays_a_timeout(face):
    pool = face(jobs=2, timeout=0.5)
    slow, fast = pool.run_all([(_sleep_then, (30.0, "late")),
                               (_echo, ("fast",))])
    assert fast == "fast"
    assert isinstance(slow, WorkerFailure)
    assert slow.kind == "timeout" and slow.error_type == "TimeoutError"
    assert pool.engine.worker_restarts == 1


def test_rule_c_bad_result_queue_messages_are_counted_and_skipped(face):
    pool = face(jobs=2)
    assert pool.run_all([(_echo, (1,))]) == [1]      # engine is up
    for garbage in (("unknown-tag",), None, ("done", 0), 17):
        pool.engine._result_queue.put(garbage)
    assert _wait_until(lambda: pool.engine.collector_errors >= 4)
    assert pool.run_all([(_echo, (i,)) for i in range(4)]) == [0, 1, 2, 3]


def test_rule_d_the_deadline_is_stamped_on_every_ticket(face):
    pool = face(jobs=2, timeout=0.5)
    slow_a, quick, slow_b = pool.run_all([
        (_sleep_then, (30.0, "a")), (_echo, ("quick",)),
        (_sleep_then, (30.0, "b"))])
    assert quick == "quick"
    for failure in (slow_a, slow_b):
        assert isinstance(failure, WorkerFailure)
        assert failure.kind == "timeout"
        assert "deadline of 0.5s" in failure.message
