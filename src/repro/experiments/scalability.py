"""E11 (extension): protocol scalability with cluster size.

Not a claim the paper quantifies, but the natural question its design
raises: the checkpoint protocol's failure-free cost is per-message
piggyback plus per-process logs, so it should scale with the coherence
traffic itself -- no per-checkpoint O(P) term (that is the coordinated
baseline's signature, E4) -- and recovery cost should be governed by the
crashed process's replay window, not by cluster size.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.experiments.base import ExperimentResult, run_workload
from repro.workloads import SyntheticWorkload


def _run(processes: int, crash: bool):
    workload = SyntheticWorkload(rounds=12, objects=max(4, processes))
    crashes = [(1, 30.0)] if crash else []
    system, result = run_workload(workload, processes=processes,
                                  interval=40.0, crashes=crashes)
    assert result.completed and workload.verify(result).ok
    acquires = (result.metrics.total_local_acquires
                + result.metrics.total_remote_acquires)
    return {
        "acquires": acquires,
        "msgs_per_acquire": result.net["total_messages"] / max(1, acquires),
        "piggyback_ratio": (result.net["piggyback_bytes"]
                            / max(1, result.net["coherence_bytes"])),
        "checkpoint_msgs": result.net["checkpoint_messages"],
        "recovery_duration": (result.recoveries[0].duration
                              if result.recoveries else None),
        "replayed": (result.recoveries[0].replayed_acquires
                     if result.recoveries else None),
    }


def run_scalability(quick: bool = True) -> ExperimentResult:
    sizes = [2, 4, 8] if quick else [2, 4, 8, 16, 24]
    failure_free = [_run(processes, crash=False) for processes in sizes]
    crashed = [_run(processes, crash=True) for processes in sizes]

    table = Table(
        "E11: failure-free cost and recovery vs cluster size",
        ["procs", "acquires", "msgs/acquire", "piggyback ratio",
         "ckpt msgs", "recovery duration", "replayed"],
    )
    for procs, ff, cr in zip(sizes, failure_free, crashed):
        table.add_row(
            procs,
            ff["acquires"],
            round(ff["msgs_per_acquire"], 2),
            round(ff["piggyback_ratio"], 3),
            ff["checkpoint_msgs"],
            round(cr["recovery_duration"], 1),
            cr["replayed"],
        )
    table.add_note("checkpoint-layer messages stay 0 at every size; "
                   "recovery cost tracks the victim's replay window, not P")

    ckpt_always_zero = all(ff["checkpoint_msgs"] == 0 for ff in failure_free)
    durations = [cr["recovery_duration"] for cr in crashed]
    bounded = max(durations) <= 3.0 * max(1e-9, min(durations))
    return ExperimentResult(
        experiment_id="E11",
        title="scalability with cluster size (extension)",
        tables=[table],
        findings={"checkpoint_msgs_always_zero": ckpt_always_zero,
                  "recovery_durations": durations},
        claim_holds=ckpt_always_zero and bounded,
    )
