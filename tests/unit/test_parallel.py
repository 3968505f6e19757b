"""Unit tests for the parallel run pool (repro.parallel).

The worker functions here are module-level on purpose: spawn-context
workers import tasks by reference, so anything ``PoolService.map`` fans
out must be addressable from a fresh interpreter.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.errors import ConfigError
from repro.parallel import (
    PoolService,
    WorkerError,
    WorkerFailure,
    derive_seed,
    resolve_jobs,
)


def _square(x):
    return x * x


def _fail_on_odd(x):
    if x % 2 == 1:
        raise ValueError(f"odd input {x}")
    return x * 10


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


# ----------------------------------------------------------------------
# derive_seed / resolve_jobs
# ----------------------------------------------------------------------

def test_derive_seed_is_pure_and_distinct():
    assert derive_seed(7, "sweep", 3) == derive_seed(7, "sweep", 3)
    assert derive_seed(7, "sweep", 3) != derive_seed(7, "sweep", 4)
    assert derive_seed(7, "sweep", 3) != derive_seed(8, "sweep", 3)
    assert derive_seed(7, "a", 1) != derive_seed(7, "a1")
    for seed in (derive_seed(0), derive_seed(2**40, "x", -5)):
        assert 0 <= seed < 2**63


def test_derive_seed_pinned_value():
    # Pinned literal: derive_seed must be stable across hosts, python
    # versions and PYTHONHASHSEED -- a change here breaks reproducibility
    # of every recorded parallel sweep.
    assert derive_seed(7, "sweep", 3) == 8171890562619946638


def test_derive_seed_rejects_non_int_str_components():
    with pytest.raises(ConfigError):
        derive_seed(7, 1.5)
    with pytest.raises(ConfigError):
        derive_seed(7, None)


def test_resolve_jobs_contract():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # one per CPU
    with pytest.raises(ConfigError):
        resolve_jobs(-2)


# ----------------------------------------------------------------------
# PoolService.map: the run pool's batch path
# ----------------------------------------------------------------------

def test_pool_options_are_jobs_timeout_max_pending():
    import inspect

    assert list(inspect.signature(PoolService).parameters) == [
        "jobs", "timeout", "max_pending"]


def test_runpool_serial_path_preserves_order():
    with PoolService(jobs=1) as pool:
        outcomes = pool.map(_square, [(i,) for i in range(6)])
        assert pool.stats()["workers_spawned"] == 0
    assert outcomes == [i * i for i in range(6)]


def test_runpool_parallel_merges_by_submission_index():
    with PoolService(jobs=2) as pool:
        outcomes = pool.map(_square, [(i,) for i in range(8)])
        assert pool.stats()["tasks_completed"] == 8
    assert outcomes == [i * i for i in range(8)]


def test_runpool_reused_across_maps():
    with PoolService(jobs=2) as pool:
        first = pool.map(_square, [(i,) for i in range(4)])
        second = pool.map(_square, [(i,) for i in range(4, 8)])
        assert pool.stats()["workers_spawned"] == 2
    assert first == [0, 1, 4, 9]
    assert second == [16, 25, 36, 49]


def test_runpool_marshals_errors_as_typed_failures():
    # The inline path and the workers yield the same failure rows.
    rows = {}
    for jobs in (1, 2):
        with PoolService(jobs=jobs) as pool:
            outcomes = pool.map(_fail_on_odd, [(i,) for i in range(4)])
        assert outcomes[0] == 0 and outcomes[2] == 20
        for index in (1, 3):
            failure = outcomes[index]
            assert isinstance(failure, WorkerFailure)
            assert failure.kind == "error"
            assert failure.error_type == "ValueError"
            assert f"odd input {index}" in failure.message
            assert "_fail_on_odd" in failure.traceback
        with pytest.raises(ValueError, match="odd input 1"):
            outcomes[1].raise_()
        rows[jobs] = [
            (o.kind, o.error_type, o.message, str(o))
            if isinstance(o, WorkerFailure) else o for o in outcomes]
    assert rows[1] == rows[2]


def test_map_unpicklable_task_raises_when_it_fans_out():
    offset = 3

    def closure(x):
        return x + offset

    with PoolService(jobs=1) as pool:
        assert pool.map(closure, [(i,) for i in range(4)]) == [3, 4, 5, 6]
    with PoolService(jobs=2) as pool:
        with pytest.raises((AttributeError, TypeError, pickle.PicklingError)):
            pool.map(closure, [(i,) for i in range(4)])
        assert pool.stats()["tasks_submitted"] == 0


def test_runpool_single_task_stays_serial():
    with PoolService(jobs=4) as pool:
        outcomes = pool.map(_square, [(5,)])
        assert pool.stats()["workers_spawned"] == 0
    assert outcomes == [25]


def test_runpool_timeout_cancels_straggler():
    with PoolService(jobs=2, timeout=0.6) as pool:
        outcomes = pool.map(_sleep_then, [
            (0.0, "fast-0"), (30.0, "slow"), (0.0, "fast-1")])
    assert outcomes[0] == "fast-0"
    assert outcomes[2] == "fast-1"
    failure = outcomes[1]
    assert isinstance(failure, WorkerFailure)
    assert failure.kind == "timeout"
    with pytest.raises(WorkerError):
        failure.raise_()


def test_worker_failure_str_format():
    failure = WorkerFailure(key="t2", kind="error",
                            error_type="ValueError", message="bad 3")
    assert str(failure) == "[error] ValueError: bad 3 (task t2)"
