"""Unit tests for PoolService's request/response way in.

Task functions are module-level on purpose -- spawn-context workers
import them by reference, so tasks must be picklable.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ConfigError
from repro.parallel import (
    PoolService,
    QueueFullError,
    ServiceClosedError,
    WorkerFailure,
)


def _double(x):
    return x * 2


def _boom():
    raise ValueError("deliberate task failure")


def _sleepy(seconds):
    time.sleep(seconds)
    return "woke"


def _die():
    os._exit(3)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def test_submit_and_result_round_trip():
    with PoolService(jobs=1) as service:
        ticket = service.submit(_double, (21,), key="answer")
        assert service.result(ticket, wait=30.0) == 42
        assert ticket.key == "answer"
        stats = service.stats()
        assert stats["tasks_submitted"] == 1
        assert stats["tasks_completed"] == 1
        assert stats["pending"] == 0


def test_concurrent_submissions_resolve_independently():
    with PoolService(jobs=1) as service:
        tickets = [service.submit(_double, (i,)) for i in range(4)]
        values = [service.result(t, wait=60.0) for t in tickets]
        assert values == [0, 2, 4, 6]


def test_task_exception_returns_typed_failure():
    with PoolService(jobs=1) as service:
        outcome = service.run(_boom, wait=30.0)
        assert isinstance(outcome, WorkerFailure)
        assert outcome.kind == "error"
        assert outcome.error_type == "ValueError"
        assert "deliberate task failure" in outcome.message
        # An errored task does not poison the worker.
        assert service.run(_double, (5,), wait=30.0) == 10


def test_queue_full_raises_429_material():
    with PoolService(jobs=1, max_pending=1) as service:
        blocker = service.submit(_sleepy, (2.0,))
        with pytest.raises(QueueFullError):
            service.submit(_double, (1,))
        assert service.result(blocker, wait=30.0) == "woke"
        # Admission reopens once the blocker drains.
        assert service.run(_double, (2,), wait=30.0) == 4


def test_worker_crash_is_detected_and_respawned():
    with PoolService(jobs=1) as service:
        outcome = service.run(_die, wait=30.0)
        assert isinstance(outcome, WorkerFailure)
        assert outcome.kind == "crash"
        assert "exited with code" in outcome.message
        assert _wait_until(lambda: service.stats()["workers"] == 1)
        assert service.worker_restarts == 1
        # The replacement worker serves the next task.
        assert service.run(_double, (3,), wait=60.0) == 6


def test_deadline_cancels_the_task_and_respawns():
    with PoolService(jobs=1, timeout=0.5) as service:
        outcome = service.run(_sleepy, (30.0,), wait=60.0)
        assert isinstance(outcome, WorkerFailure)
        assert outcome.kind == "timeout"
        assert "deadline" in outcome.message
        assert service.worker_restarts == 1
        assert _wait_until(lambda: service.stats()["workers"] == 1)
        # The replacement worker runs the next task under the same deadline.
        assert service.run(_sleepy, (0.05,), wait=60.0) == "woke"


def test_parent_side_wait_does_not_cancel():
    with PoolService(jobs=1) as service:
        ticket = service.submit(_sleepy, (1.5,))
        early = service.result(ticket, wait=0.05)
        assert isinstance(early, WorkerFailure)
        assert early.kind == "timeout"
        # The task itself was not cancelled; waiting again succeeds.
        assert service.result(ticket, wait=30.0) == "woke"


def test_close_fails_open_and_rejects_new_work():
    service = PoolService(jobs=1)
    ticket = service.submit(_sleepy, (30.0,))
    time.sleep(0.2)
    service.close()
    outcome = service.result(ticket, wait=5.0)
    assert isinstance(outcome, WorkerFailure)
    assert outcome.error_type == "ServiceClosedError"
    with pytest.raises(ServiceClosedError):
        service.submit(_double, (1,))
    service.close()  # idempotent


def test_max_pending_validated():
    with pytest.raises(ConfigError):
        PoolService(jobs=1, max_pending=0)


def test_collector_survives_malformed_queue_messages():
    # A garbage message on the result queue must not kill the collector
    # thread (every pending ticket would then hang forever); it is
    # counted in collector_errors and the service keeps working.
    with PoolService(jobs=1) as service:
        service.prewarm()
        service._result_queue.put(("unknown-tag",))
        service._result_queue.put(None)
        assert _wait_until(
            lambda: service.stats()["collector_errors"] >= 2)
        assert service.run(_double, (5,), wait=30.0) == 10


def test_prewarm_is_a_call_the_constructor_does_not_make():
    with PoolService(jobs=2) as service:
        assert service.stats()["workers"] == 0
        service.prewarm()
        assert service.stats()["workers"] == 2
        assert service.stats()["workers_spawned"] == 2
        assert service.run(_double, (4,), wait=30.0) == 8
        assert service.stats()["workers_spawned"] == 2
