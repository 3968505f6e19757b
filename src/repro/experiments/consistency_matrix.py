"""E14 (extension): protocol x consistency cost matrix.

The :class:`~repro.memory.model.ConsistencyModel` interface makes the
coherence backend a free axis, so the natural question is what the
paper's choice of entry consistency actually buys over the SC-based
techniques it is compared against.  The matrix crosses both backends
with the fault-tolerance schemes each supports (checkpoint hooks are
EC-only, so SC runs the null scheme) over a write-heavy and a
read-heavy synthetic workload:

* **entry** moves data only on demand, along ownership chains;
* **sequential** (SC-ABD style) write-through: every release-write is
  a full replication round -- update broadcast plus acks -- before the
  writer may proceed.

The claim, on both profiles: entry consistency *with the DiSOM
checkpoint protocol on top* moves fewer total bytes than sequential
consistency with no fault tolerance at all (the EC design buys more
than uncoordinated checkpointing spends), and bare entry consistency
moves fewer than bare sequential consistency.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis.report import Table
from repro.experiments.base import ExperimentResult, run_workload
from repro.workloads import SyntheticWorkload

#: The (consistency, fault-tolerance) stacks under test.  Entry runs
#: both with and without checkpointing so the DiSOM overhead is visible
#: next to the pure coherence cost; sequential runs bare.
STACKS = (
    ("entry", "disom"),
    ("entry", "none"),
    ("sequential", "none"),
)

#: Workload profiles: the read ratio is the lever that separates the
#: backends, because only release-writes trigger SC propagation.
PROFILES = {
    "write-heavy": {"read_ratio": 0.1, "object_size": 256},
    "read-heavy": {"read_ratio": 0.9, "object_size": 256},
}


def _run(profile: str, stack: str, rounds: int = 30) -> Dict[str, Any]:
    consistency, baseline = stack.split("+")
    params = PROFILES[profile]
    workload = SyntheticWorkload(rounds=rounds, objects=4,
                                 locality=0.3, **params)
    system, result = run_workload(
        workload,
        processes=4,
        interval=40.0 if baseline == "disom" else None,
        baseline=baseline,
        consistency=consistency,
    )
    assert result.completed and workload.verify(result).ok
    net = result.net
    acquires = (result.metrics.total_local_acquires
                + result.metrics.total_remote_acquires)
    return {
        "messages": net["total_messages"],
        "bytes": net["total_bytes"],
        "coherence_bytes": net["coherence_bytes"],
        "bytes_per_acquire": net["total_bytes"] / max(1, acquires),
        "release_writes": result.metrics.total("release_writes"),
    }


def run_consistency_matrix(quick: bool = True) -> ExperimentResult:
    rounds = 30 if quick else 80
    stacks = ["+".join(stack) for stack in STACKS]
    by_point = {(profile, stack): _run(profile, stack, rounds)
                for profile in PROFILES for stack in stacks}

    tables = []
    for profile in PROFILES:
        table = Table(
            f"E14: {profile} synthetic workload "
            f"(p=4, rounds={rounds}, "
            f"read_ratio={PROFILES[profile]['read_ratio']})",
            ["consistency", "fault tolerance", "messages", "total bytes",
             "coherence bytes", "bytes/acquire", "release writes"],
        )
        for consistency, baseline in STACKS:
            metrics = by_point[(profile, f"{consistency}+{baseline}")]
            table.add_row(
                consistency,
                baseline,
                metrics["messages"],
                metrics["bytes"],
                metrics["coherence_bytes"],
                round(metrics["bytes_per_acquire"], 1),
                metrics["release_writes"],
            )
        table.add_note("SC pays an update+ack replication round per "
                       "release-write; entry moves data only on demand")
        tables.append(table)

    total_bytes: Dict[str, Dict[str, int]] = {profile: {} for profile in PROFILES}
    for (profile, stack), metrics in by_point.items():
        total_bytes[profile][stack] = metrics["bytes"]
    ckpt_beats_sc = all(b["entry+disom"] < b["sequential+none"]
                        for b in total_bytes.values())
    bare_beats_sc = all(b["entry+none"] < b["sequential+none"]
                        for b in total_bytes.values())
    return ExperimentResult(
        experiment_id="E14",
        title="protocol x consistency matrix (extension)",
        tables=tables,
        findings={
            "total_bytes": total_bytes,
            "entry_with_checkpointing_beats_bare_sc": ckpt_beats_sc,
            "bare_entry_beats_bare_sc": bare_beats_sc,
        },
        claim_holds=ckpt_beats_sc and bare_beats_sc,
    )
