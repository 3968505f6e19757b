"""Property-based tests of thread checkpoint/restore determinism.

Hypothesis generates random (but deterministic) thread programs as
instruction lists; the property: restoring a thread from a checkpoint at
*any* prefix and feeding it the same acquire results reproduces exactly
the same remaining syscalls and final result.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.threads.program import Program
from repro.threads.syscalls import AcquireRead, AcquireWrite, Compute, Release
from repro.threads.thread import Thread
from repro.types import Tid


@st.composite
def instruction_lists(draw):
    """A random straight-line program over two objects."""
    n = draw(st.integers(0, 12))
    instructions = []
    held = set()
    for _ in range(n):
        choices = ["compute", "rng"]
        free = [o for o in ("a", "b") if o not in held]
        if free:
            choices += ["acquire_r", "acquire_w"]
        if held:
            choices.append("release")
        op = draw(st.sampled_from(choices))
        if op in ("acquire_r", "acquire_w"):
            obj = draw(st.sampled_from(free))
            instructions.append((op, obj))
            held.add(obj)
        elif op == "release":
            obj = draw(st.sampled_from(sorted(held)))
            instructions.append((op, obj))
            held.discard(obj)
        else:
            instructions.append((op, None))
    for obj in sorted(held):
        instructions.append(("release", obj))
    return instructions


def build_program(instructions) -> Program:
    def body(ctx):
        acc = []
        for op, obj in ctx.param("instructions"):
            if op == "acquire_r":
                value = yield AcquireRead(obj)
                acc.append(("r", obj, value))
            elif op == "acquire_w":
                value = yield AcquireWrite(obj)
                acc.append(("w", obj, value))
            elif op == "release":
                yield Release(obj)
            elif op == "compute":
                yield Compute(1.0)
            elif op == "rng":
                acc.append(("rng", None, round(ctx.rng.random(), 9)))
        return acc

    return Program("generated", body, {"instructions": instructions})


def drive(thread: Thread, feed):
    """Run a thread to completion, feeding acquire results from ``feed``."""
    observed = []
    while not thread.done:
        syscall = thread.pending_syscall
        observed.append(type(syscall).__name__)
        if isinstance(syscall, (AcquireRead, AcquireWrite)):
            thread.resume(next(feed))
        else:
            thread.resume(None)
    return observed


class TestReplayDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(instructions=instruction_lists(),
           cut=st.integers(0, 20),
           seed=st.integers(0, 10_000))
    def test_restore_at_any_prefix_reproduces_execution(
        self, instructions, cut, seed
    ):
        program = build_program(instructions)
        streams = {}

        def rng_stream(fresh):
            if fresh or "s" not in streams:
                streams["s"] = random.Random(seed)
            return streams["s"]

        def values():
            i = 0
            while True:
                yield {"v": i}
                i += 1

        # Reference execution.
        reference = Thread(Tid(0, 0), program, rng_stream)
        streams.clear()
        reference.start()
        ref_observed = drive(reference, values())
        ref_result = reference.result

        # Execution checkpointed mid-way and restored into a new thread.
        original = Thread(Tid(0, 0), program, rng_stream)
        streams.clear()
        original.start()
        feed = values()
        steps = 0
        while not original.done and steps < cut:
            syscall = original.pending_syscall
            if isinstance(syscall, (AcquireRead, AcquireWrite)):
                original.resume(next(feed))
            else:
                original.resume(None)
            steps += 1
        state = original.checkpoint_state()

        clone = Thread(Tid(0, 0), program, rng_stream)
        clone.restore_from(state)
        remaining = drive(clone, feed) if not clone.done else []
        assert clone.result == ref_result
        assert ref_observed[steps:] == remaining

    @settings(max_examples=40, deadline=None)
    @given(instructions=instruction_lists(), seed=st.integers(0, 1000))
    def test_records_equal_observed_acquires(self, instructions, seed):
        program = build_program(instructions)
        thread = Thread(Tid(0, 0), program,
                        lambda fresh: random.Random(seed))
        thread.start()

        def values():
            i = 0
            while True:
                yield i
                i += 1

        drive(thread, values())
        acquires = [kind for kind, _ in thread.records
                    if kind in ("AcquireRead", "AcquireWrite")]
        expected = [op for op, _ in instructions if op.startswith("acquire")]
        assert len(acquires) == len(expected)
