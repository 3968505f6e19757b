"""E13: disk-side fault tolerance of the two-slot checkpoint store.

The paper assumes "ordinary disks" (section 3), so the stable store must
survive disk-side failure modes on its own: torn writes (only a prefix of
the image reaches the platter), post-commit bit rot, a crash between fsync
and rename, and a write silently swallowed by a stale controller.  This
experiment injects each fault into a durable :class:`FileBackend` store
while a process crashes and recovers, and checks that recovery always
finds an intact image -- either the committed write or, via the CRC check
and two-slot fallback, the previous checkpoint.
"""

from __future__ import annotations

import os
import tempfile

from repro.analysis.report import Table
from repro.experiments.base import (
    ExperimentResult,
    build_system,
    current_defaults,
    run_system,
)
from repro.storage.faults import FAULTS_BY_NAME
from repro.workloads import SyntheticWorkload


def _run_with_fault(fault_name: str, store_dir: str, quick: bool):
    # Crash P1 after the faulted write would have committed: recovery must
    # read back whatever the store preserved.
    system = build_system(
        SyntheticWorkload(rounds=10 if quick else 25, seed=11), processes=3,
        seed=11, interval=12.0, store_dir=store_dir,
        crashes=[(1, 25.0)])
    # Hit P1's first periodic checkpoint (seq 2; seq 1 is the initial
    # image, which must stay intact for recovery to have a floor).
    system.inject_storage_fault(fault_name, pid=1, seq=2)
    return system, run_system(system)


def run_storage_faults(quick: bool = True) -> ExperimentResult:
    table = Table(
        "E13: injected disk faults vs two-slot commit + CRC verification",
        ["fault", "completed", "rollbacks", "ckpts committed", "writes lost",
         "crc failures", "slot fallbacks", "intact pids"],
    )
    always_recovered = True
    findings: dict[str, dict] = {}
    # Each fault gets a fresh store, under --store-dir when one is given.
    parent = current_defaults().store_dir
    if parent is not None:
        os.makedirs(parent, exist_ok=True)
    for fault_name in sorted(FAULTS_BY_NAME):
        with tempfile.TemporaryDirectory(prefix="repro-e13-",
                                         dir=parent) as store_dir:
            system, result = _run_with_fault(fault_name, store_dir, quick)
            storage = result.storage
            intact = sum(
                1 for pid in system.storage_backend.pids()
                if system.storage_backend.has_checkpoint(pid)
            )
            ok = (result.completed
                  and result.metrics.total_survivor_rollbacks == 0
                  and intact == 3)
            always_recovered = always_recovered and ok
            table.add_row(
                fault_name, result.completed,
                result.metrics.total_survivor_rollbacks,
                storage["writes_committed"], storage["writes_lost"],
                storage["crc_failures"], storage["slot_fallbacks"], intact,
            )
            findings[fault_name] = {
                "completed": result.completed,
                "crc_failures": storage["crc_failures"],
                "slot_fallbacks": storage["slot_fallbacks"],
                "writes_lost": storage["writes_lost"],
            }
    table.add_note("torn-write/bit-flip corrupt the latest slot: recovery "
                   "detects the bad CRC and falls back to the previous slot; "
                   "missing-rename/stale-slot lose the write entirely, "
                   "leaving the previous image the latest")
    return ExperimentResult(
        experiment_id="E13",
        title="storage faults: recovery survives torn writes and bit rot",
        tables=[table],
        findings=findings,
        claim_holds=always_recovered,
    )
