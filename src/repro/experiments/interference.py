"""E12: recovery interference with survivors (section 4.3.2).

"The protocol tries to reduce interference between the surviving
processes and the recovering process.  Surviving threads do not have to
roll back and after sending the information needed for recovery, they
only have to wait for the recovering threads, if they need an object
which is being reconstructed."

The experiment runs two survivor populations through a recovery window:
one contends for the crashed process's objects, one works on disjoint
objects.  The disjoint population's progress during the window should be
(nearly) unaffected; the contending one stalls only on the reconstructed
objects.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.experiments.base import ExperimentResult, run_workload
from repro.threads.program import Program
from repro.threads.syscalls import AcquireWrite, Compute, Release
from repro.workloads.base import Workload, WorkloadResult


def _worker(obj_id: str, rounds: int) -> Program:
    def body(ctx):
        stamps = []
        for _ in range(ctx.param("rounds")):
            value = yield AcquireWrite(ctx.param("obj_id"))
            yield Compute(1.0)
            yield Release.of(ctx.param("obj_id"), value + 1)
            stamps.append(ctx.param("clock")())
            yield Compute(1.0)
        return stamps

    return Program("worker", body, {"obj_id": obj_id, "rounds": rounds})


class _Interference(Workload):
    """P1 (the victim) owns and hammers "hot"; P2 contends for "hot";
    P3 works on the disjoint "cold"; P0 idles on "cold" home duty.
    Each worker stamps the simulated time of each of its releases."""

    name = "interference"

    def setup(self, system):
        system.add_object("hot", initial=0, home=1)
        system.add_object("cold", initial=0, home=3)
        kernel = system.kernel
        rounds = self.param("rounds")
        for pid, obj_id in ((1, "hot"), (2, "hot"), (3, "cold")):
            system.spawn(pid, _worker(obj_id, rounds).with_params(
                clock=lambda: kernel.now))

    def verify(self, result):
        rounds = self.param("rounds")
        if result.final_objects != {"hot": 2 * rounds, "cold": rounds}:
            return WorkloadResult.failure(f"counters {result.final_objects}")
        return WorkloadResult(ok=True)


def _progress_in_window(stamps: list[float], start: float, end: float) -> int:
    return sum(1 for s in stamps if start <= s <= end)


def run_interference(quick: bool = True) -> ExperimentResult:
    rounds = 30 if quick else 80
    workload = _Interference(rounds=rounds)
    _, result = run_workload(workload, processes=4, seed=5, interval=30.0,
                             crashes=[(1, 40.0)])
    assert result.completed and workload.verify(result).ok

    record = result.recoveries[0]
    window = (record.detected_at, record.finished_at)
    from repro.types import Tid

    contender_stamps = result.thread_results[Tid(2, 0)]
    bystander_stamps = result.thread_results[Tid(3, 0)]
    duration = window[1] - window[0]

    def rate(stamps, start, end):
        span = max(1e-9, end - start)
        return _progress_in_window(stamps, start, end) / span

    # Throughput during the recovery window vs before the crash.
    contender_during = rate(contender_stamps, *window)
    contender_before = rate(contender_stamps, 0.0, 40.0)
    bystander_during = rate(bystander_stamps, *window)
    bystander_before = rate(bystander_stamps, 0.0, 40.0)

    table = Table(
        "E12: survivor progress during the recovery window",
        ["survivor", "contends?", "ops/unit before", "ops/unit during",
         "slowdown"],
    )

    def slowdown(before, during):
        return round(before / during, 2) if during > 0 else float("inf")

    table.add_row("P2", "yes (hot)", round(contender_before, 3),
                  round(contender_during, 3),
                  slowdown(contender_before, contender_during))
    table.add_row("P3", "no (cold)", round(bystander_before, 3),
                  round(bystander_during, 3),
                  slowdown(bystander_before, bystander_during))
    table.add_note(f"recovery window: {duration:.1f} time units; survivors "
                   "never roll back -- contenders only wait on reconstructed "
                   "objects")

    bystander_unaffected = (bystander_during
                            >= 0.6 * max(1e-9, bystander_before))
    claim = (result.metrics.total_survivor_rollbacks == 0
             and bystander_unaffected)
    return ExperimentResult(
        experiment_id="E12",
        title="recovery interferes only with contending survivors",
        tables=[table],
        findings={
            "bystander_rate_before": bystander_before,
            "bystander_rate_during": bystander_during,
            "contender_rate_before": contender_before,
            "contender_rate_during": contender_during,
        },
        claim_holds=claim,
    )
