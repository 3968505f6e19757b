"""Trace-free fast mode must be invisible to the simulation.

``set_fast_mode(True)`` lets the hot layers skip building trace records
entirely (the big-cluster fast path).  The contract is that the gate
only elides *observation*: every simulated behavior -- event counts,
message counts and bytes, checkpoint sizes, final object state, thread
results -- is byte-identical with the gate on and off.  These tests run
the E2-shaped (small cluster, crash-free message accounting) and
E11-shaped (scalability point) configurations both ways and compare
:func:`repro.fingerprint.config_fingerprint` content addresses of a
canonical behavior summary.
"""

import gc

import pytest

from repro import AcquireWrite, Compute, Program, Release
from repro.checkpoint.policy import CheckpointPolicy
from repro.cluster.config import ClusterConfig
from repro.cluster.system import DisomSystem
from repro.sim.tracing import set_fast_mode, trace_active
from repro.workloads import SyntheticWorkload
from tests.conftest import behavior_fingerprint


@pytest.fixture(autouse=True)
def _restore_fast_mode():
    previous = set_fast_mode(True)
    yield
    set_fast_mode(previous)


def _behavior_fingerprint(processes: int, rounds: int, interval: float,
                          seed: int, fast: bool) -> str:
    """One full run; returns the content address of everything the
    simulation decided (not how it was observed)."""
    previous = set_fast_mode(fast)
    try:
        system = DisomSystem(
            ClusterConfig(processes=processes, seed=seed),
            CheckpointPolicy(interval=interval),
        )
        workload = SyntheticWorkload(rounds=rounds, objects=processes)
        workload.setup(system)
        result = system.run()
    finally:
        set_fast_mode(previous)
    assert result.completed and workload.verify(result).ok
    return behavior_fingerprint(system, result)


@pytest.mark.parametrize(
    "processes,rounds,interval",
    [
        pytest.param(4, 12, 50.0, id="e2_shape_p4"),
        pytest.param(16, 8, 40.0, id="e11_shape_p16"),
    ],
)
def test_fast_mode_is_byte_identical(processes, rounds, interval):
    slow = _behavior_fingerprint(processes, rounds, interval, seed=7,
                                 fast=False)
    fast = _behavior_fingerprint(processes, rounds, interval, seed=7,
                                 fast=True)
    assert slow == fast


def test_inline_check_overrides_fast_mode():
    """``check=True`` needs the trace; an enabled log must re-open the
    gate even while fast mode is on, and the checked run must still
    produce a verdict."""
    set_fast_mode(True)
    system = DisomSystem(
        ClusterConfig(processes=4, seed=7, check=True),
        CheckpointPolicy(interval=50.0),
    )
    workload = SyntheticWorkload(rounds=8, objects=4)
    workload.setup(system)
    result = system.run()
    assert result.completed and workload.verify(result).ok
    assert result.check_report is not None
    assert not result.invariant_violations


def _gate_sampler(samples: list) -> Program:
    """A thread that records what the trace gate reads at each step."""

    def body(ctx):
        for _ in range(4):
            samples.append(trace_active())
            value = yield AcquireWrite("counter")
            yield Compute(1.0)
            yield Release.of("counter", value + 1)
        return "done"

    return Program("gate-sampler", body, {})


def _sampled_run(check: bool) -> list:
    samples: list = []
    system = DisomSystem(ClusterConfig(processes=2, seed=7, check=check),
                         CheckpointPolicy(interval=50.0))
    system.add_object("counter", initial=0, home=0)
    for pid in range(2):
        system.spawn(pid, _gate_sampler(samples))
    assert system.run().completed
    return samples


def test_checked_run_releases_the_gate_when_it_returns():
    """The gate is held for the duration of a traced run, not for the
    lifetime of its log: a server worker or fuzz batch must be back on
    the fast path the moment a checked scenario returns -- without
    waiting for a cyclic GC to free the old system."""
    set_fast_mode(True)
    gc.disable()
    try:
        assert all(_sampled_run(check=True)), "a checked run needs the gate"
        assert trace_active() is False
        assert not any(_sampled_run(check=False)), (
            "an unchecked run saw the gate a finished checked run left set")
        assert trace_active() is False
    finally:
        gc.enable()
