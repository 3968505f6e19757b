"""Unit tests for thread control blocks, programs and replay restore."""

import random

import pytest

from repro.errors import MemoryModelError, RecoveryError
from repro.threads.program import Program, ProgramContext, program
from repro.threads.syscalls import (
    AcquireRead,
    AcquireWrite,
    Compute,
    Log,
    Release,
)
from repro.threads.thread import Thread, ThreadState
from repro.types import AcquireType, Tid, WaitObj, ep


def rng_factory(fresh: bool) -> random.Random:
    return random.Random(1234)


def make_thread(body, params=None, tid=Tid(0, 0)) -> Thread:
    return Thread(tid, Program("test", body, params or {}), rng_factory)


def simple_body(ctx):
    value = yield AcquireWrite("x")
    yield Compute(1.0)
    yield Release.of("x", value + 1)
    return "finished"


class TestThreadLifecycle:
    def test_start_yields_first_syscall(self):
        thread = make_thread(simple_body)
        thread.start()
        assert isinstance(thread.pending_syscall, AcquireWrite)
        assert thread.state is ThreadState.READY

    def test_resume_sequence_to_completion(self):
        thread = make_thread(simple_body)
        thread.start()
        thread.resume(10)        # acquire returns 10
        assert isinstance(thread.pending_syscall, Compute)
        thread.resume(None)
        assert isinstance(thread.pending_syscall, Release)
        thread.resume(None)
        assert thread.done
        assert thread.result == "finished"

    def test_non_syscall_yield_rejected(self):
        def bad(ctx):
            yield 42

        thread = make_thread(bad)
        with pytest.raises(MemoryModelError):
            thread.start()

    def test_logical_time_ticks(self):
        thread = make_thread(simple_body)
        assert thread.lt == 0
        thread.tick()
        assert thread.lt == 1
        assert thread.current_ep() == ep(0, 0, 1)

    def test_completed_lt_excludes_inflight_acquire(self):
        thread = make_thread(simple_body)
        thread.start()
        thread.tick()
        thread.acquire_pending = True
        thread.state = ThreadState.WAIT_ACQUIRE
        assert thread.lt == 1
        assert thread.completed_lt() == 0
        assert thread.completed_ep() == ep(0, 0, 0)

    def test_parked_unticked_thread_is_not_mid_acquire(self):
        # A thread held at an admission gate has state WAIT_ACQUIRE but
        # never ticked; its checkpoint must not claim an in-flight acquire.
        thread = make_thread(simple_body)
        thread.start()
        thread.state = ThreadState.WAIT_ACQUIRE
        state = thread.checkpoint_state()
        assert not state["mid_acquire"]
        assert thread.completed_lt() == thread.lt


class TestContractChecks:
    def test_nested_acquire_rejected(self):
        thread = make_thread(simple_body)
        thread.note_acquired("x", AcquireType.WRITE, 0)
        with pytest.raises(MemoryModelError):
            thread.check_can_acquire("x")

    def test_release_without_hold_rejected(self):
        thread = make_thread(simple_body)
        with pytest.raises(MemoryModelError):
            thread.check_can_release("x")

    def test_release_returns_mode(self):
        thread = make_thread(simple_body)
        thread.note_acquired("x", AcquireType.READ, 5)
        assert thread.check_can_release("x") is AcquireType.READ
        assert thread.note_released("x") == 5
        assert "x" not in thread.held


class TestRecordingAndRestore:
    def test_acquire_results_recorded_pristine(self):
        thread = make_thread(simple_body)
        thread.start()
        value = [1, 2]
        thread.resume(value)
        value.append(3)  # caller mutates after the fact
        kind, recorded = thread.records[0]
        assert kind == "AcquireWrite"
        assert recorded == [1, 2]

    def test_records_are_plain_tuples_after_a_synthetic_run(self):
        # Live resumes and a restore from a checkpoint image (the crash)
        # are the two producers of records; both leave exact 2-tuples.
        from repro.api import run_workload

        system, result = run_workload("synthetic", processes=3, seed=7,
                                      crashes=[(1, 40.0)])
        assert result.completed and len(result.recoveries) == 1
        records = [record for process in system.processes.values()
                   for thread in process.threads.values()
                   for record in thread.records]
        assert records
        assert all(record.__class__ is tuple and len(record) == 2
                   for record in records)
        assert {kind for kind, _ in records} >= {
            "AcquireRead", "AcquireWrite", "Release"}

    def test_restore_reproduces_suspension_point(self):
        original = make_thread(simple_body)
        original.start()
        original.resume(10)   # past the acquire, suspended at Compute
        state = original.checkpoint_state()

        clone = make_thread(simple_body)
        clone.restore_from(state)
        assert isinstance(clone.pending_syscall, Compute)
        assert clone.lt == original.lt
        clone.resume(None)
        clone.resume(None)
        assert clone.done
        assert clone.result == "finished"

    def test_restore_of_finished_thread(self):
        thread = make_thread(simple_body)
        thread.start()
        for value in (10, None, None):
            thread.resume(value)
        state = thread.checkpoint_state()
        clone = make_thread(simple_body)
        clone.restore_from(state)
        assert clone.done
        assert clone.result == "finished"

    def test_restore_unticks_midflight_acquire(self):
        thread = make_thread(simple_body)
        thread.start()
        thread.tick()
        thread.acquire_pending = True
        thread.wait_obj = WaitObj("x", AcquireType.WRITE, thread.current_ep())
        thread.state = ThreadState.WAIT_ACQUIRE
        state = thread.checkpoint_state()
        assert state["mid_acquire"]

        clone = make_thread(simple_body)
        clone.restore_from(state)
        assert clone.lt == 0          # tick undone
        assert clone.wait_obj is None
        assert isinstance(clone.pending_syscall, AcquireWrite)

    def test_restore_detects_divergence(self):
        thread = make_thread(simple_body)
        thread.start()
        thread.resume(10)
        state = thread.checkpoint_state()

        def different(ctx):
            yield Compute(1.0)  # diverges: first syscall is not an acquire
            yield AcquireWrite("x")

        clone = make_thread(different)
        with pytest.raises(RecoveryError, match="divergence"):
            clone.restore_from(state)

    def test_restore_wrong_tid_rejected(self):
        thread = make_thread(simple_body)
        thread.start()
        state = thread.checkpoint_state()
        other = make_thread(simple_body, tid=Tid(1, 0))
        with pytest.raises(RecoveryError):
            other.restore_from(state)

    def test_rng_restart_preserves_determinism(self):
        def rng_body(ctx):
            draws = [ctx.rng.random() for _ in range(3)]
            yield Compute(1.0)
            return draws

        streams = {"draws": random.Random(99)}

        def rng_stream(fresh: bool):
            if fresh:
                streams["draws"] = random.Random(99)
            return streams["draws"]

        thread = Thread(Tid(0, 0), Program("rng", rng_body, {}), rng_stream)
        thread.start()
        state = thread.checkpoint_state()
        thread.resume(None)
        original = thread.result

        clone = Thread(Tid(0, 0), Program("rng", rng_body, {}), rng_stream)
        clone.restore_from(state)
        clone.resume(None)
        assert clone.result == original


class TestProgram:
    def test_with_params_merges(self):
        base = Program("p", simple_body, {"a": 1})
        derived = base.with_params(b=2)
        assert derived.params == {"a": 1, "b": 2}
        assert base.params == {"a": 1}

    def test_decorator(self):
        @program("decorated", x=5)
        def body(ctx):
            yield Compute(ctx.param("x"))

        assert isinstance(body, Program)
        assert body.name == "decorated"
        assert body.params == {"x": 5}

    def test_context_param_default(self):
        ctx = ProgramContext(Tid(0, 0), {"a": 1}, random.Random(0))
        assert ctx.param("a") == 1
        assert ctx.param("missing", "dflt") == "dflt"
        assert ctx.pid == 0


class TestSyscalls:
    def test_release_of_distinguishes_explicit_none(self):
        implicit = Release("x")
        explicit = Release.of("x", None)
        assert not implicit.has_value
        assert explicit.has_value

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)

    def test_acquire_types(self):
        assert AcquireRead("x").type is AcquireType.READ
        assert AcquireWrite("x").type is AcquireType.WRITE

    def test_log_fields(self):
        entry = Log("msg", {"k": 1})
        assert entry.message == "msg"
        assert entry.fields == {"k": 1}
