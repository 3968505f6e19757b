"""Integration tests: inline verification over real simulations.

The seed workloads must come out clean under ``check=True`` (races or
invariant violations here would mean either a protocol bug or a checker
false positive -- both reportable), and the planted faults from
:mod:`repro.verify.seeded` must be flagged.
"""

import pytest

from tests.conftest import make_system
from repro import CheckpointPolicy, ClusterConfig, DisomSystem
from repro.verify import attach
from repro.verify.seeded import FAULT_KINDS, run_seeded_fault
from repro.workloads import ALL_WORKLOADS

CHECKED_WORKLOADS = ("sor", "nbody", "tsp", "matmul")


def run_checked(name, processes=3, seed=7, crashes=(), **kwargs):
    workload = ALL_WORKLOADS[name]()
    system = make_system(processes=processes, seed=seed, check=True, **kwargs)
    workload.setup(system)
    for pid, when in crashes:
        system.inject_crash(pid, at_time=when)
    result = system.run()
    assert result.completed, name
    assert workload.verify(result).ok, name
    assert result.check_report is not None
    return result


class TestSeedWorkloadsPassClean:
    @pytest.mark.parametrize("name", CHECKED_WORKLOADS)
    def test_failure_free(self, name):
        report = run_checked(name).check_report
        assert report.ok, report.problem_strings()
        assert report.events_checked > 0

    @pytest.mark.parametrize("name,crash_at", (("sor", 40.0), ("tsp", 20.0)))
    def test_with_crash_and_recovery(self, name, crash_at):
        result = run_checked(name, crashes=((1, crash_at),), interval=15.0,
                             spare_nodes=2)
        assert result.recoveries, "the crash should have triggered a recovery"
        assert result.check_report.ok, result.check_report.problem_strings()

    def test_synthetic_with_crash(self):
        workload = ALL_WORKLOADS["synthetic"]()
        system = make_system(processes=3, seed=2317, interval=30.0,
                             spare_nodes=2, check=True)
        workload.setup(system)
        system.inject_crash(1, at_time=45.0)
        result = system.run()
        assert result.completed
        assert result.check_report.ok, result.check_report.problem_strings()


class TestReportPlumbing:
    def test_report_lands_in_run_result(self):
        result = run_checked("synthetic")
        report = result.check_report
        assert report.races == []
        assert report.violations == []
        assert report.overhead_seconds >= 0.0
        assert "clean" in report.summary()

    def test_violations_merge_into_run_result(self):
        # A clean run contributes nothing to invariant_violations.
        result = run_checked("synthetic")
        assert result.invariant_violations == []

    def test_attach_is_idempotent(self):
        system = make_system(processes=2, check=True)
        verifier = system.verifier
        assert verifier is not None
        assert attach(system) is verifier

    def test_attach_on_plain_system(self):
        # attach() works on a system built without check=True.
        workload = ALL_WORKLOADS["synthetic"]()
        system = make_system(processes=2, seed=5)
        attach(system)
        workload.setup(system)
        result = system.run()
        assert result.check_report is not None
        assert result.check_report.ok


class TestCoverageDoesNotDependOnTheTraceRing:
    @pytest.mark.parametrize("ring", (200_000, 256))
    def test_swallowed_dummy_is_reported_whatever_the_ring_holds(self, ring):
        """The first dummy entry never reaches the checker.  With a
        256-row ring the acquire's own "mem" row is long evicted by the
        end of the run; the rule must flag the gap all the same."""
        system = DisomSystem(
            ClusterConfig(processes=4, seed=7, check=True,
                          trace_max_records=ring),
            CheckpointPolicy(interval=50.0))
        ALL_WORKLOADS["synthetic"]().setup(system)
        deliver, swallowed = system.observers.on_dummy_created, []

        def swallow_first(pid, dummy):
            if swallowed:
                deliver(pid, dummy)
            else:
                swallowed.append(dummy)

        system.observers.on_dummy_created = swallow_first
        result = system.run()
        assert (ring == 256) == bool(system.kernel.trace.dropped)
        assert [v.rule for v in result.check_report.violations] == [
            "dummy-coverage"]
        assert str(swallowed[0].ep_acq) in str(
            result.check_report.violations[0])


class TestSeededFaultsAreFlagged:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_detected(self, kind):
        assert run_seeded_fault(kind), f"seeded fault {kind!r} went undetected"

    def test_all_seven_kinds_are_registered(self):
        assert FAULT_KINDS == ("race", "gc-unsafe", "dummy-chain", "schedule",
                               "locks", "purity", "escapes")

    def test_cli_exit_code_is_inverted(self, capsys):
        from repro.cli import main

        for kind in FAULT_KINDS:
            assert main(["check", "--seed-fault", kind]) == 1
        assert "NOT DETECTED" not in capsys.readouterr().out

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_seeded_fault("nonsense")
