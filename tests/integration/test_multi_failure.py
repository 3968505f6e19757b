"""Integration tests for Theorem 2: "In the event of multiple failures,
either the system is brought to a consistent state or the application is
aborted." (paper section 4.5)"""

import pytest

from tests.conftest import counter_system, make_system
from repro.workloads import SyntheticWorkload


def run_multi(crashes, seed=7, processes=4, rounds=10, interval=40.0,
              spare_nodes=4):
    baseline = counter_system(processes=processes, rounds=rounds, seed=seed,
                              interval=interval, spare_nodes=spare_nodes)
    base_result = baseline.run()
    system = counter_system(processes=processes, rounds=rounds, seed=seed,
                            interval=interval, spare_nodes=spare_nodes)
    for pid, when in crashes:
        system.inject_crash(pid, at_time=when)
    result = system.run()
    return base_result, result, system


class TestTheorem2:
    @pytest.mark.parametrize("crashes", [
        [(0, 20.0), (1, 20.0)],
        [(1, 15.0), (2, 18.0)],
        [(0, 30.0), (3, 32.0)],
        [(0, 10.0), (1, 10.0), (2, 10.0)],
    ])
    def test_consistent_or_aborted(self, crashes):
        base, result, _ = run_multi(crashes)
        if result.aborted:
            assert result.abort_reason  # the designed outcome
        else:
            assert result.completed
            assert result.final_objects == base.final_objects
            assert not result.invariant_violations

    def test_simultaneous_crash_of_all_writers_synthetic(self):
        workload = SyntheticWorkload(rounds=12, objects=5)
        baseline = make_system(processes=4, seed=21, interval=30.0,
                               spare_nodes=4)
        workload.setup(baseline)
        base = baseline.run()

        workload2 = SyntheticWorkload(rounds=12, objects=5)
        system = make_system(processes=4, seed=21, interval=30.0,
                             spare_nodes=4)
        workload2.setup(system)
        system.inject_crash(0, at_time=25.0)
        system.inject_crash(2, at_time=25.0)
        result = system.run()
        if not result.aborted:
            assert result.completed
            check = workload2.verify(result)
            assert check.ok, check.issues
            assert not result.invariant_violations

    def test_abort_reaches_conclusion_quickly(self):
        # Whatever the outcome, the run terminates (no hang).
        _, result, _ = run_multi([(0, 12.0), (1, 13.0)], interval=200.0)
        assert result.aborted or result.completed

    def test_detection_is_conservative_not_lossy(self):
        """Sweep several multi-crash schedules; every non-aborted run must
        be fully consistent -- 'detects all situations that can lead to an
        inconsistent state'."""
        outcomes = {"recovered": 0, "aborted": 0}
        for seed in (1, 2, 3):
            for crashes in ([(0, 18.0), (2, 22.0)], [(1, 35.0), (3, 35.0)]):
                base, result, _ = run_multi(crashes, seed=seed)
                if result.aborted:
                    outcomes["aborted"] += 1
                else:
                    outcomes["recovered"] += 1
                    assert result.final_objects == base.final_objects
                    assert not result.invariant_violations
        assert sum(outcomes.values()) == 6

    def test_sequential_distant_failures_both_recover(self):
        # Far-apart failures behave like two single failures.
        base, result, _ = run_multi([(1, 15.0), (2, 120.0)], rounds=14,
                                    interval=20.0)
        assert not result.aborted
        assert result.completed
        assert result.final_objects == base.final_objects
        assert len(result.recoveries) == 2

    def test_survivors_never_roll_back_even_multi(self):
        _, result, _ = run_multi([(0, 20.0), (1, 22.0)])
        assert result.metrics.total_survivor_rollbacks == 0


class TestRepeatedFailure:
    def test_recovered_process_can_crash_again(self):
        baseline = counter_system(processes=3, rounds=10, seed=9,
                                  interval=20.0, spare_nodes=4)
        base = baseline.run()

        system = counter_system(processes=3, rounds=10, seed=9,
                                interval=20.0, spare_nodes=4)
        system.inject_crash(1, at_time=15.0)

        # Crash P1 again well after its first recovery completes.
        def second_crash():
            process = system.processes[1]
            if process.alive and process.recovery_manager is None:
                system.crash_now(1)

        system.kernel.schedule_at(120.0, second_crash)
        result = system.run()
        if not result.aborted:
            assert result.completed
            assert result.final_objects == base.final_objects


class TestKnownDoubleGrant:
    """Pinned-seed regression for the doubly stored dummy entry (seed
    2, P0@30 P2@65).  A survivor piggybacked a dummy entry to P0 while
    P0 was recovering; P0 stored it when its deferred piggyback drained
    and again when replay re-created the failed process's dummies from
    the merged DummySet.  When P2 later crashed, its LogList had two
    identical elements at one logical time and recovery raised
    ``ProtocolError: duplicate LogList element ... (double grant of one
    acquire)``.  ``DummyLog.store`` is idempotent on ``(obj_id,
    ep_acq)`` now, and Theorem 2 holds here.
    """

    def test_pinned_seed_widely_spaced_crashes_recover_or_abort(self):
        from repro import run_workload

        workload = SyntheticWorkload(rounds=12, objects=5)
        _, result = run_workload(
            workload, processes=4, seed=2, interval=30.0,
            crashes=[(0, 30.0), (2, 65.0)], spare_nodes=4,
        )
        # Theorem 2's contract: recovered and consistent, or aborted --
        # never a protocol-level crash.
        if result.aborted:
            assert result.abort_reason
        else:
            assert result.completed
            assert workload.verify(result).ok
            assert not result.invariant_violations


#: Eight crashes of distinct processes, 250 time units apart, on a
#: 16-process cluster: the failure storm of the ``crash_storm`` benchmark.
STORM = tuple(((3 + 5 * i) % 16, 150.0 + 250.0 * i) for i in range(8))


@pytest.mark.parametrize("seed", [3, 19, 28, 41, 58, 61, 78])
def test_crash_storm_recovers_every_failure(seed):
    """The cluster seeds at which the failure storm used to hit the
    doubly stored dummy entry and raise ``duplicate LogList element``;
    each of the eight recoveries now finishes and the result verifies.
    Seed 58 stalls if forward hints come back after a recovery: a
    re-issued duplicate of a write request then points hints at a writer
    that is already done, and two writers park behind each other."""
    from repro import CheckpointPolicy, ClusterConfig, DisomSystem

    system = DisomSystem(
        ClusterConfig(processes=16, seed=seed, spare_nodes=9),
        CheckpointPolicy(interval=300.0))
    workload = SyntheticWorkload(rounds=300, objects=16, object_size=64)
    workload.setup(system)
    for pid, at_time in STORM:
        system.inject_crash(pid, at_time)
    result = system.run()
    assert result.completed
    assert workload.verify(result).ok
    assert not result.invariant_violations
    assert sum(1 for recovery in result.recoveries
               if recovery.finished_at is not None) == len(STORM)


#: CI's checked overlapping-recovery run (seed 11, four processes,
#: interval 30), with the crash schedule as ``--crash`` arguments.
CI_CHECKED_RUN = ["workload", "synthetic", "--check", "--processes", "4",
                  "--interval", "30", "--seed", "11"]


def _replay_plans(monkeypatch):
    """Record ``(pid, concurrent_recoveries)`` of every replay built."""
    from repro.checkpoint import recovery

    plans = []
    real = recovery.LogReplayer

    def spy(process, plan, on_finished):
        plans.append((process.pid, plan.concurrent_recoveries))
        return real(process, plan, on_finished=on_finished)

    monkeypatch.setattr(recovery, "LogReplayer", spy)
    return plans


def test_ci_overlapping_recoveries_finish_on_the_concurrent_branch(
        monkeypatch, capsys):
    """Two crashes half a unit apart: both replays are built while the
    other process is recovering too, and both complete under the checks."""
    from repro.cli import main

    plans = _replay_plans(monkeypatch)
    assert main([*CI_CHECKED_RUN, "--crash", "1@35", "--crash", "2@35.5"]) == 0
    out = capsys.readouterr().out
    assert sorted(plans) == [(1, True), (2, True)]
    assert "recovery P1  detected t=40.0, duration 24.4, replayed 11" in out
    assert "recovery P2   detected t=40.5, duration 14.1, replayed 2" in out
    assert "incomplete" not in out
    assert "check: clean" in out


def test_ci_former_schedule_aborts_cleanly(monkeypatch, capsys):
    """The schedule CI ran before forward hints moved the message order:
    Theorem 2's clean abort (exit 1 under ``--check``), decided before
    either replay is built, and no violation.  Whether the abort is
    necessary is open (ROADMAP, abort precision)."""
    from repro.cli import main

    plans = _replay_plans(monkeypatch)
    assert main([*CI_CHECKED_RUN, "--crash", "1@40", "--crash", "2@41"]) == 1
    out = capsys.readouterr().out
    assert plans == []
    assert out.count("incomplete") == 2
    assert ("dependency on version of obj1 produced at lt 12, beyond "
            "recoverable prefix ending at lt 11") in out
    assert "check: clean" in out


def test_a_reply_from_a_checkpoint_marks_the_replay_concurrent(
        monkeypatch, capsys):
    """P1 answers P2's request from its checkpoint while still loading,
    then finishes recovering (about t=83.5) before P2 builds its replay:
    what P2 received says a peer was recovering, so both replays take the
    concurrent branch."""
    from repro.cli import main

    plans = _replay_plans(monkeypatch)
    assert main([*CI_CHECKED_RUN, "--crash", "1@66", "--crash", "2@66.5"]) == 0
    out = capsys.readouterr().out
    assert sorted(plans) == [(1, True), (2, True)]
    assert "recovery P1  detected t=71.0, duration 12.5, replayed 0" in out
    assert "recovery P2  detected t=71.5, duration 17.9, replayed 3" in out
    assert "check: clean; 225 memory events" in out


def test_a_single_crash_replays_on_survivors_replies(monkeypatch, capsys):
    from repro.cli import main

    plans = _replay_plans(monkeypatch)
    assert main([*CI_CHECKED_RUN, "--crash", "1@40"]) == 0
    capsys.readouterr()
    assert plans == [(1, False)]


def test_a_cold_restart_replays_every_process_concurrently(
        monkeypatch, tmp_path):
    """Every process restarts from disk, so every reply comes from a
    recovering peer's checkpoint."""
    from repro.storage.backend import FileBackend

    def durable():
        return counter_system(processes=4, rounds=6, seed=7, interval=20.0,
                              storage_backend=FileBackend(
                                  str(tmp_path / "store"), fsync=False))

    system = durable()
    system.run(until=12.0)
    system.checkpoint_all()
    plans = _replay_plans(monkeypatch)
    restarted = durable()
    restarted.recover_all_from_storage()
    result = restarted.run()
    assert result.completed and not result.invariant_violations
    assert sorted(plans) == [(pid, True) for pid in range(4)]


@pytest.mark.parametrize("crashes, expected", [
    ([(1, 40.0)], ["recoveries:1", "recovery-phase:collecting",
                   "recovery-phase:done", "recovery-phase:loading",
                   "recovery-phase:replaying"]),
    # The clean abort of test_ci_former_schedule_aborts_cleanly.
    ([(1, 40.0), (2, 41.0)], [
        "concurrent-recoveries:2", "recoveries:2", "recovery-phase:aborted",
        "recovery-phase:collecting", "recovery-phase:loading",
        "recovery-phase:replaying"]),
])
def test_recovery_phases_reach_the_fuzz_coverage_vocabulary(crashes,
                                                            expected):
    """The fuzzer's recovery features are spelled from the phases'
    values and count recoveries from their start and end phases."""
    from repro import build_workload
    from repro.fuzz.coverage import CoverageProbe

    system = build_workload("synthetic", processes=4, interval=30.0,
                            seed=11, crashes=crashes, check=True)
    probe = system.observers.register(CoverageProbe())
    system.run()
    assert [feature for feature in probe.features()
            if "recover" in feature] == expected
