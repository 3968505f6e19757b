"""repro -- reproduction of Neves, Castro & Guedes (PODC 1994):
"A Checkpoint Protocol for an Entry Consistent Shared Memory System".

The package implements DiSOM -- a multithreaded entry-consistency
distributed shared memory system -- together with the paper's
distributed-log checkpoint/recovery protocol, on a deterministic
discrete-event simulated workstation cluster; plus the baselines the paper
compares against, classic DSM workloads, and the experiment harness that
reproduces every claim of the paper (see DESIGN.md / EXPERIMENTS.md).

Quickstart::

    from repro import (ClusterConfig, DisomSystem, CheckpointPolicy,
                       program, AcquireWrite, Release, Compute)

    @program("incrementer", rounds=10)
    def incrementer(ctx):
        for _ in range(ctx.param("rounds")):
            value = yield AcquireWrite("counter")
            yield Compute(1.0)
            yield Release.of("counter", value + 1)

    system = DisomSystem(ClusterConfig(processes=4, seed=7),
                         CheckpointPolicy(interval=100.0))
    system.add_object("counter", initial=0, home=0)
    for pid in range(4):
        system.spawn(pid, incrementer)
    system.inject_crash(2, at_time=25.0)   # optional fail-stop crash
    result = system.run()
    assert result.final_objects["counter"] == 40
"""

from repro.api import (
    analyze,
    attach_checkers,
    build_workload,
    fuzz,
    open_store,
    run_experiment,
    run_workload,
    serve,
)
from repro.checkpoint.policy import CheckpointPolicy, CkpSet
from repro.cluster.config import ClusterConfig, CrashPlan
from repro.cluster.system import DisomSystem, RunResult
from repro.errors import (
    ApplicationAborted,
    ConfigError,
    DeadlockError,
    InconsistentStateError,
    MemoryModelError,
    ProtocolError,
    RecoveryError,
    ReproError,
    SimulationError,
)
from repro.errors import CheckpointCorruptError, StorageError
from repro.memory.objects import SharedObjectSpec
from repro.net.channel import LatencyModel
from repro.observers import Observers
from repro.storage import (
    FileBackend,
    MemoryBackend,
    StorageBackend,
    StorageFault,
    make_backend,
)
from repro.threads.program import Program, ProgramContext, program
from repro.threads.syscalls import (
    AcquireRead,
    AcquireWrite,
    Compute,
    Log,
    Release,
)
from repro.types import (
    AcquireType,
    ExecutionPoint,
    ObjectId,
    ProcessId,
    Tid,
)

__version__ = "1.0.0"

__all__ = [
    "AcquireRead",
    "AcquireType",
    "AcquireWrite",
    "ApplicationAborted",
    "CheckpointCorruptError",
    "CheckpointPolicy",
    "CkpSet",
    "ClusterConfig",
    "Compute",
    "ConfigError",
    "CrashPlan",
    "DeadlockError",
    "DisomSystem",
    "ExecutionPoint",
    "FileBackend",
    "InconsistentStateError",
    "LatencyModel",
    "Log",
    "MemoryBackend",
    "MemoryModelError",
    "ObjectId",
    "Observers",
    "ProcessId",
    "Program",
    "ProgramContext",
    "ProtocolError",
    "RecoveryError",
    "Release",
    "ReproError",
    "RunResult",
    "SharedObjectSpec",
    "SimulationError",
    "StorageBackend",
    "StorageError",
    "StorageFault",
    "Tid",
    "ScenarioClient",
    "ScenarioServer",
    "analyze",
    "attach_checkers",
    "build_workload",
    "fuzz",
    "make_backend",
    "open_store",
    "program",
    "run_experiment",
    "run_workload",
    "serve",
    "__version__",
]


def __getattr__(name: str):
    # Lazy: the server package reads __version__ from this module, so
    # importing it eagerly here would be a cycle.  ``repro.ScenarioClient``
    # and ``repro.ScenarioServer`` resolve on first use instead.
    if name in ("ScenarioClient", "ScenarioServer", "ScenarioReply"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
