"""Multithreaded process substrate.

DiSOM processes host multiple threads (paper section 3).  Threads here are
generator coroutines that yield *syscalls* (acquire, release, compute...)
to the hosting process.  Execution is piece-wise deterministic by
construction: a thread's behaviour is a pure function of its program, its
seeded RNG stream and the sequence of values returned by its acquires --
which is exactly the assumption the paper's recovery-by-replay needs.

Checkpointing note (substitution documented in DESIGN.md): Python cannot
serialize a live generator frame, so a thread "stack + machine state"
checkpoint is represented by the thread's *replay prefix* -- the recorded
sequence of syscall results.  Restoring re-runs the program feeding it the
recorded results, which is observationally equivalent under piece-wise
determinism.
"""

from repro.threads.program import Program, ProgramContext
from repro.threads.scheduler import SyscallHandler, ThreadScheduler
from repro.threads.syscalls import (
    AcquireRead,
    AcquireWrite,
    Compute,
    Log,
    Release,
    Syscall,
)
from repro.threads.thread import Record, Thread, ThreadState

__all__ = [
    "AcquireRead",
    "AcquireWrite",
    "Compute",
    "Log",
    "Program",
    "ProgramContext",
    "Record",
    "Release",
    "Syscall",
    "SyscallHandler",
    "Thread",
    "ThreadScheduler",
    "ThreadState",
]
