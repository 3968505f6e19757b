"""Integration tests for the workload suite (failure-free)."""

import pytest

from repro.errors import ConfigError
from tests.conftest import make_system
from repro.workloads import (
    ALL_WORKLOADS,
    MatmulWorkload,
    PipelineWorkload,
    SorWorkload,
    SyntheticWorkload,
    TspWorkload,
)
from repro.workloads.base import WorkloadResult
from repro.workloads.tsp import _best_cost_bruteforce, _distance_matrix


class TestAllWorkloadsRun:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_completes_and_verifies(self, name):
        workload = ALL_WORKLOADS[name]()
        system = make_system(processes=4, seed=5)
        workload.setup(system)
        result = system.run()
        assert result.completed, name
        check = workload.verify(result)
        assert check.ok, (name, check.issues)
        assert not result.invariant_violations

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_deterministic_given_seed(self, name):
        finals = []
        for _ in range(2):
            workload = ALL_WORKLOADS[name]()
            system = make_system(processes=3, seed=31)
            workload.setup(system)
            finals.append(system.run().final_objects)
        assert finals[0] == finals[1]


class TestSynthetic:
    def test_write_counts_add_up(self):
        workload = SyntheticWorkload(rounds=20, read_ratio=0.3)
        system = make_system(processes=4, seed=2)
        workload.setup(system)
        result = system.run()
        assert workload.verify(result).ok

    def test_read_only_configuration(self):
        workload = SyntheticWorkload(rounds=10, read_ratio=1.0)
        system = make_system(processes=3, seed=2)
        workload.setup(system)
        result = system.run()
        assert workload.verify(result).ok
        assert all(v["count"] == 0 for v in result.final_objects.values())

    def test_locality_generates_dummies(self):
        high = SyntheticWorkload(rounds=15, locality=0.8)
        system = make_system(processes=3, seed=2)
        high.setup(system)
        high_result = system.run()

        low = SyntheticWorkload(rounds=15, locality=0.0)
        system2 = make_system(processes=3, seed=2)
        low.setup(system2)
        low_result = system2.run()
        assert (high_result.metrics.total("dummies_created")
                > low_result.metrics.total("dummies_created"))

    def test_describe(self):
        assert "rounds=3" in SyntheticWorkload(rounds=3).describe()


class TestSor:
    def test_matches_sequential_reference(self):
        workload = SorWorkload(iterations=3)
        system = make_system(processes=3, seed=1)
        workload.setup(system)
        result = system.run()
        assert workload.verify(result).ok

    def test_verify_catches_wrong_grid(self):
        workload = SorWorkload(iterations=3)
        system = make_system(processes=3, seed=1)
        workload.setup(system)
        result = system.run()
        parity = workload.param("iterations") % 2
        result.final_objects[f"sor.{parity}.0"][0][0] += 1.0
        assert not workload.verify(result).ok


class TestMatmul:
    def test_product_correct(self):
        workload = MatmulWorkload()
        system = make_system(processes=4, seed=1)
        workload.setup(system)
        result = system.run()
        assert workload.verify(result).ok

    def test_b_matrix_read_shared(self):
        workload = MatmulWorkload()
        system = make_system(processes=4, seed=1)
        workload.setup(system)
        result = system.run()
        # Remote workers read B exactly once each; its copySet fans out.
        owner = system.processes[0].directory.get("mm.b")
        assert len(owner.copy_set) == 3


class TestTsp:
    def test_finds_optimum(self):
        workload = TspWorkload(cities=6)
        system = make_system(processes=3, seed=4)
        workload.setup(system)
        result = system.run()
        assert workload.verify(result).ok
        assert result.final_objects["tsp.best"] == _best_cost_bruteforce(
            _distance_matrix(6))

    def test_distance_matrix_symmetric(self):
        dist = _distance_matrix(7)
        for i in range(7):
            assert dist[i][i] == 0
            for j in range(7):
                assert dist[i][j] == dist[j][i]


class TestPipeline:
    def test_needs_three_processes(self):
        workload = PipelineWorkload()
        system = make_system(processes=2)
        with pytest.raises(ConfigError, match="at least 3 processes"):
            workload.setup(system)

    def test_sum_correct_with_multiple_stages(self):
        workload = PipelineWorkload(items=10)
        system = make_system(processes=5, seed=3)
        workload.setup(system)
        result = system.run()
        assert workload.verify(result).ok


class TestWorkloadResult:
    def test_helpers(self):
        assert WorkloadResult(ok=True).ok
        failure = WorkloadResult.failure("a", "b")
        assert not failure.ok
        assert failure.issues == ["a", "b"]
