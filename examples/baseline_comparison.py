#!/usr/bin/env python3
"""Compare the paper's checkpoint protocol against every baseline scheme
on one identical workload execution.

Prints the failure-free cost profile of each scheme -- logged bytes,
stable-storage writes, extra messages, checkpoints, blocked time -- which
is the comparison frame of the paper's sections 1-2 (and of experiment
E3/E4 in EXPERIMENTS.md).

Run:  python examples/baseline_comparison.py
"""

from functools import partial

from repro import run_workload
from repro.analysis.report import Table
from repro.baselines import (
    CoordinatedProtocol,
    JanssensFuchsProtocol,
    NullProtocol,
    ReceiverMessageLogging,
    RichardSinghalProtocol,
    SenderMessageLogging,
    StummZhouProtocol,
)
from repro.workloads import SyntheticWorkload

#: scheme -> (protocol factory, what it recovers from)
SCHEMES = {
    "disom (paper)": (None, "single+some multi"),
    "none": (NullProtocol, "no"),
    "richard-singhal": (RichardSinghalProtocol, "no"),
    "stumm-zhou": (StummZhouProtocol, "no"),
    "receiver-msg-log": (ReceiverMessageLogging, "no"),
    "sender-msg-log": (SenderMessageLogging, "no"),
    "janssens-fuchs": (JanssensFuchsProtocol, "no"),
    "coordinated": (partial(CoordinatedProtocol, interval=40.0),
                    "multi (rollback all)"),
}


def main() -> None:
    table = Table(
        "failure-free cost of fault tolerance (identical workload, seed 9)",
        ["scheme", "log bytes", "stable writes", "extra msgs",
         "checkpoints", "blocked time", "recovers?"],
    )
    # The facade's ``baseline=`` names resolve default-configured schemes
    # (repro.baselines.ALL_BASELINES); here we pass the factories
    # themselves, pinning the coordinated round interval.
    for name, (factory, recovers) in SCHEMES.items():
        workload = SyntheticWorkload(rounds=20, object_size=256)
        system, result = run_workload(workload, processes=4, seed=9,
                                      interval=40.0, spare_nodes=2,
                                      protocol_factory=factory)
        assert result.completed and workload.verify(result).ok, name
        blocked = sum(
            p.checkpoint_protocol.overhead_summary().get("blocked_time", 0.0)
            for p in system.processes.values()
        )
        table.add_row(
            name,
            result.metrics.total_log_bytes,
            result.stable_writes,
            result.net["checkpoint_messages"],
            result.metrics.total_checkpoints,
            round(blocked, 1),
            recovers,
        )
    table.add_note("the paper's design point: volatile logging of released "
                   "versions only, zero extra messages, no blocking, "
                   "uncoordinated checkpoints")
    print(table.render())


if __name__ == "__main__":
    main()
