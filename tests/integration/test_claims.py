"""Paper claims: the verdict ledger, and what no verdict already checks.

EXPERIMENTS.md's verdict summary is a build product: one test runs the
quick experiment suite and fails when a row's ✔ / ✘ disagrees with the
``claim_holds`` its experiment computes, or when a registered
experiment has no row.

The four ablations (A1-A4) quantify design decisions of the protocol;
they have no ``claim holds`` line of their own.  The E-series extras
are the two findings that ``repro experiments`` computes but does not
fold into its verdict: the figure 1 cut census and E8's strictly
growing replay count.
"""

import os
import re
from pathlib import Path

from repro.checkpoint.policy import CheckpointPolicy
from repro.cluster.config import ClusterConfig
from repro.cluster.system import DisomSystem
from repro.experiments import run_figure1, run_recovery_time
from repro.experiments.base import run_workload
from repro.experiments.runner import run_experiments
from repro.workloads import SyntheticWorkload


def _verified(workload, system):
    workload.setup(system)
    result = system.run()
    assert result.completed and workload.verify(result).ok
    return result


class TestAblations:
    def test_a1_piggyback_sends_no_checkpoint_messages(self):
        # Piggybacked control information rides coherence traffic; eager
        # shipping pays one message per dummy entry and CkpSet.
        results = {}
        for transport in ("piggyback", "eager"):
            workload = SyntheticWorkload(rounds=18, locality=0.5)
            _, result = run_workload(workload, interval=25.0,
                                     control_transport=transport)
            assert result.completed and workload.verify(result).ok
            results[transport] = result.net
        assert results["piggyback"]["checkpoint_messages"] == 0
        assert results["eager"]["checkpoint_messages"] > 0
        assert (results["eager"]["total_messages"]
                > results["piggyback"]["total_messages"])

    def test_a2_checkpoint_triggers(self):
        def checkpoints(interval, highwater):
            workload = SyntheticWorkload(rounds=30, objects=6,
                                         object_size=256)
            _, result = run_workload(workload, interval=interval,
                                     highwater=highwater)
            assert result.completed and workload.verify(result).ok
            return result.metrics.total_checkpoints

        # More frequent checkpoints, more of them; the high-water policy
        # takes at least the initial ones without any timer.
        assert checkpoints(30.0, None) > checkpoints(200.0, None)
        assert checkpoints(None, 6 * 1024) >= 4

    def test_a3_both_invalidation_policies_invalidate(self):
        for strict in (True, False):
            system = DisomSystem(
                ClusterConfig(processes=4, seed=7,
                              strict_invalidation_acks=strict),
                CheckpointPolicy(interval=40.0))
            result = _verified(
                SyntheticWorkload(rounds=20, read_ratio=0.6), system)
            assert result.metrics.total("invalidations_sent") > 0

    def test_a4_incremental_writes_fewer_bytes_and_recovers(self):
        def run(incremental, crash=False):
            system = DisomSystem(
                ClusterConfig(processes=4, seed=7),
                CheckpointPolicy(interval=15.0, incremental=incremental))
            if crash:
                system.inject_crash(1, at_time=45.0)
            return _verified(
                SyntheticWorkload(rounds=24, objects=8, object_size=512,
                                  read_ratio=0.7), system)

        full, incremental = run(False), run(True)
        assert incremental.stable_bytes < full.stable_bytes
        # Same checkpoint schedule, cheaper writes.
        assert (incremental.metrics.total_checkpoints
                == full.metrics.total_checkpoints)
        # Recovery from incremental images still satisfies Theorem 1.
        crashed = run(True, crash=True)
        assert not crashed.aborted
        assert crashed.metrics.total_survivor_rollbacks == 0


def test_figure1_census_classifies_twelve_cuts():
    assert run_figure1().findings["total_cuts"] == 12


def test_e8_replay_grows_with_the_interval():
    replays = run_recovery_time(quick=True).findings["replays"]
    assert replays[-1] > replays[0]


def _verdict_summary() -> dict:
    """``{"E1": "✔", ...}`` from EXPERIMENTS.md's verdict summary table."""
    text = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text(
        encoding="utf-8")
    summary = text.split("## Verdict summary", 1)[1]
    return {match[1]: match[2] for match in
            re.finditer(r"^\| (E\d+) \|[^|]*\| ([✔✘])", summary, re.M)}


def test_e12_and_e13_take_the_experiment_defaults(monkeypatch, tmp_path):
    # Both build through experiments.base, so --seed, --store-dir and
    # --check reach them as they reach every other experiment.
    from repro.experiments import base
    from repro.experiments.interference import run_interference
    from repro.experiments.storage_faults import run_storage_faults

    built = []
    build = base.build_workload

    def spy(workload, **kwargs):
        built.append((kwargs["seed"], kwargs["store_dir"]))
        return build(workload, **kwargs)

    monkeypatch.setattr(base, "build_workload", spy)
    store = str(tmp_path / "stores")
    defaults = base.ExperimentDefaults(check=True, seed=3, store_dir=store)
    with defaults.active() as reports:
        assert run_interference().claim_holds
        assert run_storage_faults().claim_holds
    assert [seed for seed, _ in built] == [3] * 5
    assert built[0][1] == store  # E12 uses the store itself
    # E13 gives each of its four faults a fresh store under it.
    fault_stores = [path for _, path in built[1:]]
    assert len(set(fault_stores)) == 4
    assert all(path.startswith(os.path.join(store, "repro-e13-"))
               for path in fault_stores)
    assert len(reports) == 5


def test_verdict_summary_matches_every_experiment():
    verdicts = _verdict_summary()
    outcomes, _ = run_experiments(quick=True)
    computed = {exp_id.split("-")[0]: "✔" if result.claim_holds else "✘"
                for exp_id, result in outcomes}
    assert computed == verdicts
