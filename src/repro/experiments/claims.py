"""Experiments E2-E5, E8-E10: the paper's quantitative claim sentences.

Each experiment runs the checkpointed system (and baselines where the
claim is comparative) on the same workloads and prints the rows recorded
in EXPERIMENTS.md.  ``quick=True`` (the default, used by the benchmarks)
uses smaller sweeps; ``quick=False`` widens them.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.analysis.report import Table
from repro.baselines import CoordinatedProtocol
from repro.experiments.base import ExperimentResult, run_workload
from repro.workloads import (
    PipelineWorkload,
    SorWorkload,
    SyntheticWorkload,
    TspWorkload,
)


# ---------------------------------------------------------------------------
# E2: "no extra messages during the failure-free period"
# ---------------------------------------------------------------------------
def run_no_extra_messages(quick: bool = True) -> ExperimentResult:
    workloads = {
        "synthetic": lambda: SyntheticWorkload(rounds=14 if quick else 40),
        "sor": lambda: SorWorkload(iterations=3 if quick else 8),
        "tsp": lambda: TspWorkload(cities=6 if quick else 8),
        "pipeline": lambda: PipelineWorkload(items=10 if quick else 30),
    }
    process_counts = (4, 8) if quick else (4, 8, 16)
    table = Table(
        "E2: extra checkpoint-layer messages (paper claims 0)",
        ["workload", "procs", "coherence msgs", "checkpoint msgs",
         "piggyback bytes", "piggyback/coherence bytes"],
    )
    zero_everywhere = True
    for name, factory in workloads.items():
        for procs in process_counts:
            if name == "pipeline" and procs < 3:
                continue
            _, result = run_workload(factory(), processes=procs, interval=25.0)
            assert result.completed
            net = result.net
            zero_everywhere = zero_everywhere and net["checkpoint_messages"] == 0
            ratio = (net["piggyback_bytes"] / net["coherence_bytes"]
                     if net["coherence_bytes"] else 0.0)
            table.add_row(name, procs, net["coherence_messages"],
                          net["checkpoint_messages"], net["piggyback_bytes"],
                          round(ratio, 3))
    table.add_note("piggyback carries ep control fields, dummy entries and "
                   "GC CkpSets; the checkpoint layer itself sends nothing")
    return ExperimentResult(
        experiment_id="E2",
        title="no extra messages during the failure-free period",
        tables=[table],
        findings={"checkpoint_messages_always_zero": zero_everywhere},
        claim_holds=zero_everywhere,
    )


# ---------------------------------------------------------------------------
# E3: logging overhead vs sequential-consistency-based techniques
# ---------------------------------------------------------------------------
def run_log_overhead(quick: bool = True) -> ExperimentResult:
    rounds = 18 if quick else 50
    # table label -> registry name (every scheme at its default parameters)
    schemes = {
        "disom (paper)": "disom",
        "richard-singhal": "richard-singhal",
        "stumm-zhou": "stumm-zhou",
        "receiver-msg-log": "receiver-msg-log",
        "sender-msg-log": "sender-msg-log",
        "janssens-fuchs": "janssens-fuchs",
        "none": "none",
    }
    table = Table(
        "E3: fault-tolerance data volume on identical executions",
        ["scheme", "logged bytes", "log entries", "stable writes",
         "stable bytes", "checkpoints", "extra msg bytes"],
    )
    rows = {}
    for name, baseline in schemes.items():
        system, result = run_workload(
            SyntheticWorkload(rounds=rounds, object_size=256),
            baseline=baseline, interval=60.0,
        )
        assert result.completed
        extra = sum(
            p.checkpoint_protocol.overhead_summary().get("replication_bytes", 0)
            for p in system.processes.values()
        )
        rows[name] = {
            "logged_bytes": result.metrics.total_log_bytes,
            "log_entries": result.metrics.total("log_entries_created"),
            "stable_writes": result.stable_writes,
            "stable_bytes": result.stable_bytes,
            "checkpoints": result.metrics.total_checkpoints,
            "extra_bytes": extra,
        }
        table.add_row(name, rows[name]["logged_bytes"],
                      rows[name]["log_entries"], rows[name]["stable_writes"],
                      rows[name]["stable_bytes"], rows[name]["checkpoints"],
                      extra)

    disom = rows["disom (paper)"]
    rs = rows["richard-singhal"]
    ratio_rs = rs["logged_bytes"] / max(1, disom["logged_bytes"])
    ratio_msg = (rows["receiver-msg-log"]["logged_bytes"]
                 / max(1, disom["logged_bytes"]))
    table.add_note(
        f"SC page logging logs {ratio_rs:.1f}x the bytes of the EC "
        f"checkpoint protocol (paper cites 5-10x for relaxed vs SC)"
    )
    claim = ratio_rs >= 3.0 and ratio_msg >= 1.0 and disom["stable_writes"] < rows["receiver-msg-log"]["stable_writes"]
    return ExperimentResult(
        experiment_id="E3",
        title="minimal logging overhead vs SC-based techniques",
        tables=[table],
        findings={"rs_over_disom_bytes": ratio_rs,
                  "rmsg_over_disom_bytes": ratio_msg},
        claim_holds=claim,
    )


# ---------------------------------------------------------------------------
# E4: uncoordinated vs coordinated checkpointing
# ---------------------------------------------------------------------------
def run_coordination_overhead(quick: bool = True) -> ExperimentResult:
    process_counts = (2, 4, 8) if quick else (2, 4, 8, 16, 32)
    table = Table(
        "E4: checkpoint coordination cost (per committed checkpoint wave)",
        ["procs", "scheme", "ckpt msgs", "msgs/wave", "blocked time",
         "checkpoints"],
    )
    grows_linearly = True
    for procs in process_counts:
        rounds = 16 if quick else 30
        for name, factory in (
            ("disom", None),
            ("coordinated", partial(CoordinatedProtocol, interval=40.0)),
        ):
            system, result = run_workload(
                SyntheticWorkload(rounds=rounds), processes=procs,
                protocol_factory=factory, interval=40.0,
            )
            assert result.completed
            blocked = sum(
                p.checkpoint_protocol.overhead_summary().get("blocked_time", 0.0)
                for p in system.processes.values()
            )
            if name == "coordinated":
                waves = max(1, system.processes[0].checkpoint_protocol.rounds_completed)
                per_wave = result.net["checkpoint_messages"] / waves
                # Two-phase blocking coordination: 4 messages per
                # participant per wave.
                grows_linearly = grows_linearly and per_wave >= 2 * (procs - 1)
            else:
                per_wave = 0.0
            table.add_row(procs, name, result.net["checkpoint_messages"],
                          round(per_wave, 1), round(blocked, 1),
                          result.metrics.total_checkpoints)
    table.add_note("DiSOM checkpoints independently: zero messages, zero "
                   "blocking, at any cluster size")
    return ExperimentResult(
        experiment_id="E4",
        title="uncoordinated checkpointing avoids coordination overhead",
        tables=[table],
        findings={"coordinated_cost_grows_with_procs": grows_linearly},
        claim_holds=grows_linearly,
    )


# ---------------------------------------------------------------------------
# E5: pessimistic -- survivors never roll back
# ---------------------------------------------------------------------------
def run_no_rollback(quick: bool = True) -> ExperimentResult:
    table = Table(
        "E5: survivor rollbacks after one crash",
        ["scheme", "crash", "survivor rollbacks", "recovered", "verified"],
    )
    crashes = [(1, 30.0)] if quick else [(1, 30.0), (2, 55.0)]
    claim = True
    for name, factory in (
        ("disom", None),
        ("coordinated", partial(CoordinatedProtocol, interval=30.0)),
    ):
        for victim, when in crashes:
            workload = SyntheticWorkload(rounds=18)
            system, result = run_workload(
                workload, protocol_factory=factory, crashes=[(victim, when)],
                interval=30.0,
            )
            verified = workload.verify(result).ok if result.completed else False
            rollbacks = result.metrics.total_survivor_rollbacks
            table.add_row(name, f"P{victim}@{when}", rollbacks,
                          result.completed and not result.aborted, verified)
            if name == "disom":
                claim = claim and rollbacks == 0 and verified
            else:
                claim = claim and rollbacks > 0  # the contrast
    return ExperimentResult(
        experiment_id="E5",
        title="no surviving process rolls back (pessimistic protocol)",
        tables=[table],
        findings={},
        claim_holds=claim,
    )


# ---------------------------------------------------------------------------
# E8: recovery time grows with time since the last checkpoint
# ---------------------------------------------------------------------------
def run_recovery_time(quick: bool = True) -> ExperimentResult:
    crash_time = 95.0
    intervals = (8.0, 24.0, 48.0, 96.0) if quick else (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
    table = Table(
        "E8: recovery cost vs checkpoint interval (crash fixed at t=95)",
        ["ckpt interval", "work since ckpt", "replayed acquires",
         "recovery duration", "checkpoints taken"],
    )
    rows = []
    for interval in intervals:
        workload = SyntheticWorkload(rounds=60, compute_range=(0.5, 1.5),
                                     objects=4)
        system, result = run_workload(
            workload, interval=interval, crashes=[(1, crash_time)],
        )
        assert result.completed and not result.aborted
        record = result.recoveries[0]
        # Work-at-risk: time between the victim's last checkpoint and the
        # crash (bounded by the interval).
        work_since_ckpt = crash_time % interval
        replayed = record.replayed_acquires
        rows.append((interval, replayed, record.duration))
        table.add_row(interval, round(work_since_ckpt, 1), replayed,
                      round(record.duration or 0.0, 2),
                      result.metrics.total_checkpoints)
    # Shape check: replayed work grows (weakly) with the interval.
    replays = [r[1] for r in rows]
    durations = [r[2] for r in rows]
    monotone = all(replays[i] <= replays[i + 1] + 1 for i in range(len(replays) - 1))
    longer = durations[-1] >= durations[0]
    table.add_note("checkpoint frequency trades failure-free cost against "
                   "recovery time, independent of the application (section 2)")
    return ExperimentResult(
        experiment_id="E8",
        title="recovery duration grows with the time since the checkpoint",
        tables=[table],
        findings={"replays": replays, "durations": durations},
        claim_holds=monotone and longer,
    )


# ---------------------------------------------------------------------------
# E9: garbage collection bounds the logs; high-water-mark policy
# ---------------------------------------------------------------------------
def run_gc(quick: bool = True) -> ExperimentResult:
    rounds = 30 if quick else 80
    table = Table(
        "E9: log growth and garbage collection",
        ["configuration", "entries appended", "live entries at end",
         "pairs GC'd", "dummies GC'd", "deps GC'd", "checkpoints"],
    )

    def live_entries(system):
        return sum(len(p.checkpoint_protocol.log) for p in system.processes.values())

    results = {}
    for name, kwargs in (
        ("GC on (interval 15)", dict(interval=15.0)),
        ("GC starved (interval 1000)", dict(interval=1000.0)),
        ("highwater 4KB", dict(interval=None, highwater=4096)),
    ):
        workload = SyntheticWorkload(rounds=rounds, objects=8)
        system, result = run_workload(workload, **kwargs)
        assert result.completed
        appended = sum(p.checkpoint_protocol.log.appended
                       for p in system.processes.values())
        live = live_entries(system)
        results[name] = (appended, live)
        table.add_row(
            name, appended, live,
            result.metrics.total("gc_threadset_pairs_dropped"),
            result.metrics.total("gc_dummies_dropped"),
            result.metrics.total("gc_depset_entries_dropped"),
            result.metrics.total_checkpoints,
        )
    gc_on = results["GC on (interval 15)"]
    gc_off = results["GC starved (interval 1000)"]
    claim = gc_on[1] < gc_on[0] and gc_on[1] <= gc_off[1]
    return ExperimentResult(
        experiment_id="E9",
        title="garbage collection bounds protocol memory",
        tables=[table],
        findings={"live_with_gc": gc_on[1], "live_without_gc": gc_off[1]},
        claim_holds=claim,
    )


# ---------------------------------------------------------------------------
# E10: dummy log entries for local acquires
# ---------------------------------------------------------------------------
def run_dummy_log(quick: bool = True) -> ExperimentResult:
    localities = (0.0, 0.2, 0.5, 0.8)
    table = Table(
        "E10: dummy-entry mechanism vs locality (local re-acquire rate)",
        ["locality", "local acquires", "dummies created", "dummies shipped",
         "piggyback bytes", "crash recovered+verified"],
    )
    claim = True
    for locality in localities:
        workload = SyntheticWorkload(rounds=16 if quick else 40,
                                     locality=locality)
        system, result = run_workload(workload, interval=40.0,
                                      crashes=[(2, 35.0)])
        verified = result.completed and workload.verify(result).ok
        claim = claim and verified
        table.add_row(
            locality,
            result.metrics.total_local_acquires,
            result.metrics.total("dummies_created"),
            result.metrics.total("dummies_shipped"),
            result.net["piggyback_bytes"],
            verified,
        )
    table.add_note("every local acquire is dummy-logged and shipped with "
                   "the next coherence message (section 4.2); recovery "
                   "stays correct at any locality")
    return ExperimentResult(
        experiment_id="E10",
        title="local acquires are recoverable via dummy log entries",
        tables=[table],
        findings={},
        claim_holds=claim,
    )
