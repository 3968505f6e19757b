"""Integration tests: the parallel run pool against the real simulator.

The pool's contract is *invisibility*: every table, metric and counter
must come out byte-identical whether a study ran serially or fanned out
over workers.  These tests exercise that contract end to end -- real
``DisomSystem`` runs through ``PoolService.map`` and the experiment
runner -- plus the check-report aggregation path.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import run_experiments
from repro.parallel import PoolService, WorkerFailure


def _run_point(processes: int, seed: int) -> dict:
    """One real simulated run; module-level so it pickles into workers."""
    from repro.checkpoint.policy import CheckpointPolicy
    from repro.cluster.config import ClusterConfig
    from repro.cluster.system import DisomSystem
    from repro.workloads import SyntheticWorkload

    workload = SyntheticWorkload(rounds=4, objects=3)
    system = DisomSystem(
        ClusterConfig(processes=processes, seed=seed),
        CheckpointPolicy(interval=40.0),
    )
    workload.setup(system)
    result = system.run()
    assert result.completed and workload.verify(result).ok
    return {
        "events": system.kernel.dispatched,
        "messages": result.net["total_messages"],
        "acquires": (result.metrics.total_local_acquires
                     + result.metrics.total_remote_acquires),
    }


def _run_points(points, jobs: int) -> list:
    with PoolService(jobs=jobs) as pool:
        return pool.map(_run_point, points)


class TestSweepEquality:
    def test_real_run_sweep_identical_serial_vs_parallel(self):
        points = [(processes, seed) for processes in (2, 4)
                  for seed in (0, 1, 2)]
        serial = _run_points(points, jobs=1)
        fanned = _run_points(points, jobs=4)
        assert not any(isinstance(o, WorkerFailure) for o in serial + fanned)
        assert serial == fanned


class TestExperimentRunner:
    def test_experiment_results_identical_serial_vs_parallel(self):
        serial, _ = run_experiments(["E2", "E12"], quick=True, jobs=1)
        fanned, _ = run_experiments(["E2", "E12"], quick=True, jobs=4)
        assert [eid for eid, _ in serial] == [eid for eid, _ in fanned]
        for (eid, a), (_, b) in zip(serial, fanned):
            assert not isinstance(a, WorkerFailure), f"{eid} failed serially"
            assert not isinstance(b, WorkerFailure), f"{eid} failed fanned"
            assert a.render() == b.render(), f"{eid} diverged under --jobs"
            assert a.findings == b.findings

    def test_outcomes_in_registry_order(self):
        outcomes, _ = run_experiments(["E12", "E2"], quick=True, jobs=2)
        assert [eid for eid, _ in outcomes] == ["E2-no-extra-messages",
                                               "E12-interference"]

    def test_check_reports_aggregate_across_workers(self):
        # Experiments fan out one per worker and run their points
        # serially inside it; a single experiment runs inline.  Either
        # way every checked run reports, exactly as in a serial run.
        for ids in (["E2", "E12"], ["E14"]):
            outcomes, merged = run_experiments(ids, quick=True, check=True,
                                               jobs=2)
            assert all(not isinstance(o, WorkerFailure) for _, o in outcomes)
            assert merged is not None
            assert merged.ok
            assert merged.events_checked > 0
            _, serial_merged = run_experiments(ids, quick=True, check=True,
                                               jobs=1)
            assert serial_merged is not None
            assert merged.events_checked == serial_merged.events_checked, ids

    @pytest.mark.parametrize("exp_id", ["E12", "E13"])
    def test_check_reaches_the_hand_built_clusters(self, exp_id):
        # E12/E13 build custom clusters; --check used to print a false
        # "clean; 0 memory events" for them.
        _, merged = run_experiments([exp_id], quick=True, check=True)
        assert merged is not None and merged.ok
        assert merged.events_checked > 0


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs 4+ physical cores")
class TestSpeedup:
    def test_sweep_fanout_beats_serial(self):
        import time

        points = [(4, seed) for seed in range(8)]
        start = time.perf_counter()
        _run_points(points, jobs=1)
        serial_wall = time.perf_counter() - start
        start = time.perf_counter()
        _run_points(points, jobs=4)
        parallel_wall = time.perf_counter() - start
        # Loose bound: worker startup is amortized over only 8 points, so
        # demand better-than-serial, not a suite-level speed-up.
        assert parallel_wall < serial_wall
