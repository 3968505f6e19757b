"""Producer/stage/consumer pipeline over shared queues.

A producer on process 0 pushes work items through a queue object; stage
workers transform them into a second queue; a consumer folds them into a
shared accumulator.  Queue hand-offs are write-acquire heavy with
ownership ping-ponging between stages -- the adversarial case for the
coherence protocol, and a dense source of log entries for the checkpoint
protocol.  The accumulated sum is deterministic (addition commutes).
"""

from __future__ import annotations

from typing import Any

from repro.cluster.system import DisomSystem, RunResult
from repro.errors import ConfigError
from repro.threads.program import Program
from repro.threads.syscalls import AcquireWrite, Compute, Release
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.lib import fetch_add, queue_close, queue_pop, queue_push


def _producer_body(ctx):
    items = ctx.param("items")
    cost = ctx.param("produce_cost")
    for i in range(items):
        yield Compute(cost)
        yield from queue_push("pipe.q1", i)
    yield from queue_close("pipe.q1")
    return items


def _stage_body(ctx):
    cost = ctx.param("stage_cost")
    items = ctx.param("items")
    handled = 0
    while True:
        item = yield from queue_pop("pipe.q1")
        if item is None:
            break
        yield Compute(cost)
        yield from queue_push("pipe.q2", item * 2 + 1)
        handled += 1
        done = yield from fetch_add("pipe.staged", 1)
        if done + 1 == items:
            yield from queue_close("pipe.q2")
    return handled


def _consumer_body(ctx):
    cost = ctx.param("consume_cost")
    consumed = 0
    while True:
        item = yield from queue_pop("pipe.q2")
        if item is None:
            break
        yield Compute(cost)
        total = yield AcquireWrite("pipe.sum")
        yield Release.of("pipe.sum", total + item)
        consumed += 1
    return consumed


class PipelineWorkload(Workload):
    """See module docstring."""

    name = "pipeline"

    @classmethod
    def default_params(cls) -> dict[str, Any]:
        return {
            "items": 12,
            "produce_cost": 1.0,
            "stage_cost": 2.0,
            "consume_cost": 1.0,
        }

    def setup(self, system: DisomSystem) -> None:
        nproc = system.config.processes
        if nproc < 3:
            raise ConfigError("pipeline needs at least 3 processes")
        system.add_object("pipe.q1", initial=[], home=0)
        system.add_object("pipe.q2", initial=[], home=1 % nproc)
        system.add_object("pipe.sum", initial=0, home=nproc - 1)
        system.add_object("pipe.staged", initial=0, home=1 % nproc)
        params = dict(self.params)
        system.spawn(0, Program("producer", _producer_body, params))
        for pid in range(1, nproc - 1):
            system.spawn(pid, Program("stage", _stage_body, params))
        system.spawn(nproc - 1, Program("consumer", _consumer_body, params))

    def verify(self, result: RunResult) -> WorkloadResult:
        items = self.param("items")
        expected = sum(i * 2 + 1 for i in range(items))
        issues = []
        if result.final_objects.get("pipe.sum") != expected:
            issues.append(
                f"sum {result.final_objects.get('pipe.sum')} != {expected}"
            )
        if result.final_objects.get("pipe.staged") != items:
            issues.append(
                f"staged {result.final_objects.get('pipe.staged')} != {items}"
            )
        return WorkloadResult(ok=not issues, issues=issues)
