"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Optional

import pytest

from repro import (
    AcquireRead,
    AcquireWrite,
    CheckpointPolicy,
    ClusterConfig,
    Compute,
    DisomSystem,
    Program,
    Release,
)


def make_system(
    processes: int = 3,
    seed: int = 7,
    interval: Optional[float] = 100.0,
    highwater: Optional[int] = None,
    trace: bool = False,
    protocol_factory=None,
    storage_backend=None,
    **config_kwargs,
) -> DisomSystem:
    """One-stop system builder used across integration tests."""
    return DisomSystem(
        ClusterConfig(processes=processes, seed=seed, trace=trace, **config_kwargs),
        CheckpointPolicy(interval=interval, log_highwater=highwater),
        protocol_factory=protocol_factory,
        storage_backend=storage_backend,
    )


def incrementer(obj_id: str = "counter", rounds: int = 5,
                compute: float = 1.0, gap: float = 1.0) -> Program:
    """Thread program that increments a shared counter ``rounds`` times.

    Increments commute, so the final counter equals the total number of
    increments regardless of interleaving -- the canonical deterministic
    workload for failure-injection tests.
    """

    def body(ctx):
        for _ in range(ctx.param("rounds")):
            value = yield AcquireWrite(ctx.param("obj_id"))
            yield Compute(ctx.param("compute"))
            yield Release.of(ctx.param("obj_id"), value + 1)
            yield Compute(ctx.param("gap"))
        return "done"

    return Program("incrementer", body, {
        "obj_id": obj_id, "rounds": rounds, "compute": compute, "gap": gap,
    })


def reader(obj_id: str = "counter", rounds: int = 5, gap: float = 1.5) -> Program:
    """Thread program that repeatedly read-acquires a shared object."""

    def body(ctx):
        seen = []
        for _ in range(ctx.param("rounds")):
            value = yield AcquireRead(ctx.param("obj_id"))
            seen.append(value)
            yield Release(ctx.param("obj_id"))
            yield Compute(ctx.param("gap"))
        return seen

    return Program("reader", body, {"obj_id": obj_id, "rounds": rounds, "gap": gap})


def counter_system(processes: int = 3, rounds: int = 5, seed: int = 7,
                   interval: Optional[float] = 100.0, **kwargs) -> DisomSystem:
    """System with one shared counter and one incrementer per process."""
    system = make_system(processes=processes, seed=seed, interval=interval, **kwargs)
    system.add_object("counter", initial=0, home=0)
    for pid in range(processes):
        system.spawn(pid, incrementer(rounds=rounds))
    return system


def behavior_fingerprint(system: DisomSystem, result) -> str:
    """Content address of everything one run *decided* (not how it was
    observed): the summary the fast-mode and cross-run isolation tests
    compare byte for byte."""
    from repro.fingerprint import config_fingerprint

    return config_fingerprint({
        "duration": result.duration,
        "events": system.kernel.dispatched,
        "net": result.net,
        "stable_writes": result.stable_writes,
        "stable_bytes": result.stable_bytes,
        "peak_log_bytes": result.peak_log_bytes,
        "final_objects": {str(k): repr(v)
                          for k, v in sorted(result.final_objects.items(),
                                             key=lambda kv: str(kv[0]))},
        "thread_results": {str(k): repr(v)
                           for k, v in sorted(result.thread_results.items(),
                                              key=lambda kv: str(kv[0]))},
    })


@pytest.fixture
def kernel():
    from repro.sim.kernel import Kernel

    return Kernel(seed=42)
