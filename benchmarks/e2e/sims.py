"""The four simulator workloads: ff_wide, ff_long, crash_storm, durable_restart.

One repeat builds a fresh cluster (outside the timed region), runs it to
completion through ``DisomSystem.run`` and checks the outcome; the
workload differs only in its :class:`SimShape`.  ``durable_restart``
adds a second phase: a fresh cluster cold-restarts from the store the
first one wrote.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from benchmarks.e2e import stats
from benchmarks.e2e.hostspeed import HostPace
from benchmarks.e2e.spans import SpanRecorder, installed, layer_metrics
from benchmarks.e2e.workload import Budget, Workload


@dataclass(frozen=True)
class SimShape:
    processes: int
    rounds: int
    objects: int
    interval: float
    fast_mode: bool = True
    object_size: int = 64
    #: (pid, simulated time) fail-stop crashes, each recovered.
    crashes: Tuple[Tuple[int, float], ...] = ()
    spare_nodes: int = 2
    #: Simulated time at which a durable run stops and checkpoints; the
    #: rest of the work is done by the restarted cluster.
    stop_at: Optional[float] = None
    #: No checkpoint-layer message and no survivor rollback may occur.
    failure_free: bool = False


_STORM = tuple(((3 + 5 * i) % 16, 150.0 + 250.0 * i) for i in range(8))

SHAPES: Dict[str, SimShape] = {
    "ff_wide": SimShape(processes=64, rounds=30, objects=64, interval=40.0,
                        failure_free=True),
    "ff_long": SimShape(processes=8, rounds=1200, objects=8, interval=40.0,
                        failure_free=True),
    "crash_storm": SimShape(processes=16, rounds=300, objects=16,
                            interval=300.0, fast_mode=False, crashes=_STORM,
                            spare_nodes=9),
    "durable_restart": SimShape(processes=16, rounds=120, objects=16,
                                interval=40.0, object_size=1024,
                                stop_at=700.0),
}

#: ``--smoke``: the same code paths at about a twentieth of the events.
SMOKE_SHAPES: Dict[str, SimShape] = {
    "ff_wide": replace(SHAPES["ff_wide"], rounds=2),
    "ff_long": replace(SHAPES["ff_long"], rounds=60),
    "crash_storm": replace(SHAPES["crash_storm"], rounds=40,
                           crashes=_STORM[:1], spare_nodes=2),
    "durable_restart": replace(SHAPES["durable_restart"], rounds=16,
                               stop_at=70.0),
}


#: Host seconds of simulation per host-speed-corrected slice.
SLICE_S = 0.08


class Slice(NamedTuple):
    raw: float            # host seconds as read
    region: int           # the host-speed probe region it ran in
    events: int
    checkpoint_bytes: float   # cluster total when the slice ended
    checkpoints: float        # likewise


@dataclass
class Stretch:
    """One timed stretch of a repeat, as host-speed-probed slices."""

    pace: HostPace
    slices: List[Slice] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(piece.events for piece in self.slices)

    @property
    def raw(self) -> float:
        """Host seconds as read."""
        return sum(piece.raw for piece in self.slices)

    def _walls(self) -> List[float]:
        return [self.pace.corrected(piece.raw, piece.region)
                for piece in self.slices]

    @property
    def wall(self) -> float:
        """Host seconds at reference host speed (read it once the probes
        after the stretch exist)."""
        return sum(self._walls())

    def growth(self) -> Optional[Tuple[float, float]]:
        """Last quarter over first quarter of the stretch: host seconds
        per event, and bytes per checkpoint."""
        quarter = len(self.slices) // 4
        if quarter < 1:
            return None
        walls = self._walls()
        split = len(self.slices) - quarter

        def cost(lo: int, hi: int) -> float:
            events = sum(piece.events for piece in self.slices[lo:hi])
            return sum(walls[lo:hi]) / events if events else 0.0

        head, before_tail, tail = (self.slices[quarter - 1],
                                   self.slices[split - 1], self.slices[-1])
        tail_count = tail.checkpoints - before_tail.checkpoints
        if not cost(0, quarter) or head.checkpoints <= 0 or tail_count <= 0:
            return None
        tail_bytes = tail.checkpoint_bytes - before_tail.checkpoint_bytes
        return (cost(split, len(self.slices)) / cost(0, quarter),
                (tail_bytes / tail_count)
                / (head.checkpoint_bytes / head.checkpoints))


@dataclass
class Repeat:
    """What one repeat measured and decided."""

    throughput: Stretch  # the phase events/s is taken from
    operation: Stretch   # the operation a user waits on (may be the same)
    digest: str
    counts: Dict[str, float]
    problems: List[str]

    def _stretches(self) -> List[Stretch]:
        if self.operation is self.throughput:
            return [self.throughput]
        return [self.throughput, self.operation]

    @property
    def total(self) -> float:
        """All timed host seconds of the repeat, at reference speed."""
        return sum(stretch.wall for stretch in self._stretches())

    @property
    def raw_total(self) -> float:
        return sum(stretch.raw for stretch in self._stretches())


def _summary(system: Any, result: Any) -> Dict[str, Any]:
    """Everything the simulation decided (the fast-mode identity summary)."""
    return {
        "duration": result.duration,
        "events": system.kernel.dispatched,
        "net": result.net,
        "stable_writes": result.stable_writes,
        "stable_bytes": result.stable_bytes,
        "peak_log_bytes": result.peak_log_bytes,
        "final_objects": {str(k): repr(v) for k, v in sorted(
            result.final_objects.items(), key=lambda kv: str(kv[0]))},
        "thread_results": {str(k): repr(v) for k, v in sorted(
            result.thread_results.items(), key=lambda kv: str(kv[0]))},
    }


def exact_counts(phases: List[Tuple[Any, Any]]) -> Dict[str, float]:
    """Per-layer counts from the public results of one repeat's phases."""
    def total(pick: Any) -> float:
        return sum(pick(system, result) for system, result in phases)

    def metric(name: str) -> float:
        return total(lambda s, r: r.metrics.total(name))

    remote = metric("remote_acquires")
    created = metric("log_entries_created")
    recoveries = [rec for _, result in phases for rec in result.recoveries]
    finished = [rec.duration for rec in recoveries if rec.duration is not None]
    # storage.* describe the durable store; the in-memory backend's
    # counters repeat checkpoint.count / checkpoint.bytes.
    durable = [(s, r) for s, r in phases if r.storage["backend"] == "file"]

    def stored(name: str) -> float:
        return sum(result.storage[name] for _, result in durable)

    stable_bytes = sum(result.stable_bytes for _, result in durable)
    return {
        "sim.events": total(lambda s, r: s.kernel.dispatched),
        "sim.duration": total(lambda s, r: r.duration),
        "net.messages": total(lambda s, r: r.net["total_messages"]),
        "net.bytes": total(lambda s, r: r.net["total_bytes"]),
        "net.piggyback_bytes": total(lambda s, r: r.net["piggyback_bytes"]),
        "net.checkpoint_messages":
            total(lambda s, r: r.net["checkpoint_messages"]),
        "memory.local_acquires": metric("local_acquires"),
        "memory.remote_acquires": remote,
        "memory.forwards_per_remote_acquire":
            metric("request_forwards") / remote if remote else 0.0,
        "checkpoint.count": total(lambda s, r: r.metrics.total_checkpoints),
        "checkpoint.bytes":
            total(lambda s, r: r.metrics.total_checkpoint_bytes),
        "checkpoint.peak_log_bytes":
            max(result.peak_log_bytes for _, result in phases),
        "checkpoint.log_entries_created": created,
        "checkpoint.gc_dropped_ratio":
            metric("gc_log_entries_dropped") / created if created else 0.0,
        "checkpoint.dummies_created": metric("dummies_created"),
        "checkpoint.recovery.count": len(recoveries),
        "checkpoint.recovery.replayed_acquires":
            sum(rec.replayed_acquires for rec in recoveries),
        "checkpoint.recovery.sim_time":
            sum(finished) / len(finished) if finished else 0.0,
        "storage.commits": stored("writes_committed"),
        "storage.bytes_written": stored("bytes_written"),
        "storage.bytes_read": stored("bytes_read"),
        "storage.compress_ratio":
            stored("bytes_written") / stable_bytes if stable_bytes else 0.0,
    }


class SimWorkload(Workload):
    """Closed loop of whole-cluster runs of one shape."""

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: str) -> None:
        super().__init__(name, seed, smoke, work_dir)
        self.shape = (SMOKE_SHAPES if smoke else SHAPES)[name]
        self._first: Optional[Tuple[Any, Any]] = None
        #: Learnt by the warm-up repeat, which runs unsliced: per phase,
        #: (simulated end time, number of slices).
        self._plan: Dict[str, Tuple[float, int]] = {}

    # -- building -------------------------------------------------------
    def _build(self, store_dir: Optional[str] = None) -> Tuple[Any, Any]:
        from repro import CheckpointPolicy, ClusterConfig, DisomSystem, open_store
        from repro.workloads import SyntheticWorkload

        shape = self.shape
        system = DisomSystem(
            ClusterConfig(processes=shape.processes, seed=self.seed,
                          spare_nodes=shape.spare_nodes),
            CheckpointPolicy(interval=shape.interval),
            storage_backend=open_store(store_dir) if store_dir else None,
        )
        workload = SyntheticWorkload(rounds=shape.rounds, objects=shape.objects,
                                     object_size=shape.object_size)
        workload.setup(system)
        for pid, when in shape.crashes:
            system.inject_crash(pid, when)
        return system, workload

    def setup(self) -> None:
        if self.shape.stop_at is None:
            self._first = self._build()

    def close(self) -> None:
        self._first = None

    # -- timing ---------------------------------------------------------
    def _region(self, stretch: Stretch, work: Any) -> None:
        """Time one call as a single slice."""
        region = self.pace.probe()
        started = time.perf_counter()
        work()
        stretch.slices.append(
            Slice(time.perf_counter() - started, region, 0, 0.0, 0.0))
        self.pace.probe()

    def _drive(self, system: Any, stretch: Stretch, phase: str,
               stop: Optional[float]) -> Any:
        """``system.run(until=stop)`` in corrected slices.

        The slice boundaries are simulated times: running to them with
        ``run(until=...)`` decides nothing (the digest check holds the
        harness to that).  The first repeat knows no plan yet and runs
        the phase in one piece.
        """
        begin = system.kernel.now
        end, pieces = self._plan.get(phase, (0.0, 1))
        marks = [begin + (end - begin) * k / pieces
                 for k in range(1, pieces)] + [stop]
        region = self.pace.probe()
        for until in marks:
            before = system.kernel.dispatched
            started = time.perf_counter()
            result = system.run(until=until)
            raw = time.perf_counter() - started
            stretch.slices.append(
                Slice(raw, region, system.kernel.dispatched - before,
                      result.metrics.total_checkpoint_bytes,
                      result.metrics.total_checkpoints))
            region = self.pace.probe()
        if phase not in self._plan:
            pieces = 4 * max(1, round(stretch.raw / SLICE_S / 4))
            self._plan[phase] = (system.kernel.now, pieces)
        return result

    # -- one repeat -----------------------------------------------------
    def _check(self, result: Any, workload: Any, problems: List[str]) -> None:
        if not result.completed:
            problems.append(f"run did not complete: {result.abort_reason}")
        elif not workload.verify(result).ok:
            problems.append("workload.verify failed")
        problems.extend(result.invariant_violations)
        shape = self.shape
        if shape.failure_free:
            if result.net["checkpoint_messages"]:
                problems.append("checkpoint-layer messages on a failure-free run")
            if result.metrics.total_survivor_rollbacks:
                problems.append("a survivor rolled back")
        if shape.crashes:
            done = [rec for rec in result.recoveries
                    if rec.finished_at is not None]
            if len(done) != len(shape.crashes):
                problems.append(f"{len(done)} of {len(shape.crashes)} "
                                "recoveries finished")

    def _repeat(self) -> Repeat:
        """Build a cluster, run it, check what it did."""
        from repro.fingerprint import config_fingerprint
        from repro.sim.tracing import set_fast_mode, trace_active

        fast_before = not trace_active()
        set_fast_mode(self.shape.fast_mode)
        try:
            if self.shape.stop_at is not None:
                return self._durable_repeat()
            built, self._first = self._first, None
            system, workload = built or self._build()
            problems: List[str] = []
            stretch = Stretch(self.pace)
            gc.collect()
            result = self._drive(system, stretch, "run", None)
        finally:
            set_fast_mode(fast_before)
        self._check(result, workload, problems)
        return Repeat(throughput=stretch, operation=stretch,
                      digest=config_fingerprint(_summary(system, result)),
                      counts=exact_counts([(system, result)]),
                      problems=problems)

    def _durable_repeat(self) -> Repeat:
        from repro.fingerprint import config_fingerprint

        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        problems: List[str] = []
        write, restart = Stretch(self.pace), Stretch(self.pace)
        try:
            writer, _ = self._build(store_dir)
            gc.collect()
            written = self._drive(writer, write, "write", self.shape.stop_at)
            self._region(write, lambda: (writer.checkpoint_all(),
                                         writer.checkpoint_all()))
            # checkpoint_all ran after the partial result was built.
            written.storage = writer.stable_store.storage_counters()
            written.stable_bytes = writer.stable_store.bytes_written()
            problems.extend(written.invariant_violations)

            reader, workload = self._build(store_dir)
            gc.collect()
            self._region(restart, reader.recover_all_from_storage)
            restarted = self._drive(reader, restart, "restart", None)
            self._check(restarted, workload, problems)
            if restarted.storage["reads"] < self.shape.processes:
                problems.append(f"restart read {restarted.storage['reads']} "
                                f"checkpoints, expected "
                                f">= {self.shape.processes}")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        digest = config_fingerprint(
            {"write": _summary(writer, written),
             "restart": _summary(reader, restarted)})
        return Repeat(throughput=write, operation=restart, digest=digest,
                      counts=exact_counts([(writer, written),
                                           (reader, restarted)]),
                      problems=problems)

    # -- measuring ------------------------------------------------------
    def _repeats(self, seconds: float, floor: int) -> List[Repeat]:
        """One discarded warm-up, then repeats until ``seconds`` elapsed."""
        repeats = [self._repeat()]
        budget = Budget(seconds, floor)
        while budget.more(len(repeats) - 1):
            repeats.append(self._repeat())
            self.mark_rss()   # the warm-up and one timed repeat
        return repeats

    def _judge(self, repeats: List[Repeat]) -> None:
        """Tally every repeat; a digest unlike the first one's fails too."""
        for index, repeat in enumerate(repeats):
            reasons = list(repeat.problems)
            if repeat.digest != repeats[0].digest:
                reasons.append("behaviour digest differs from the first repeat")
            self.note(not reasons, f"repeat {index}: " + "; ".join(reasons))

    def measure(self, seconds: float) -> Dict[str, Any]:
        repeats = self._repeats(seconds, floor=1 if self.smoke else 3)
        timed = repeats[1:]
        self._judge(repeats)
        events = timed[0].throughput.events
        return self.outcome(
            {"ops_per_s": events / stats.median(
                [r.throughput.wall for r in timed]),
             "op_ms_p50": stats.median(
                 [r.operation.wall for r in timed]) * 1000.0},
            {"digest": repeats[0].digest, "samples": len(timed),
             "counts": repeats[0].counts,
             "uncorrected": {
                 "ops_per_s": events / stats.median(
                     [r.throughput.raw for r in timed]),
                 "op_ms_p50": stats.median(
                     [r.operation.raw for r in timed]) * 1000.0}})

    def measure_traced(self, seconds: float) -> Dict[str, Any]:
        """Untraced repeats for the counts, the growth shapes and the
        baseline wall, then the same repeats with spans installed."""
        untraced = self._repeats(seconds * 0.4, floor=1 if self.smoke else 2)
        timed = untraced[1:]
        metrics: Dict[str, float] = dict(untraced[0].counts)
        metrics["cluster.warm_drift"] = stats.thirds_ratio(
            [r.total for r in timed])
        growths = [g for g in (r.operation.growth() for r in timed) if g]
        if growths:
            metrics["sim.cost_growth"] = stats.median([g[0] for g in growths])
            metrics["checkpoint.size_growth"] = stats.median(
                [g[1] for g in growths])

        recorder = SpanRecorder()
        folds: List[Dict[str, Dict[str, float]]] = []
        traced: List[Repeat] = []
        budget = Budget(seconds * 0.4, floor=1)
        with installed(recorder):
            while budget.more(len(traced)):
                recorder.reset()
                traced.append(self._repeat())
                folds.append(recorder.fold())
        metrics.update(layer_metrics(folds, [r.raw_total for r in traced]))
        metrics["trace.overhead_ratio"] = (
            stats.median([r.total for r in traced])
            / stats.median([r.total for r in timed]))
        self._judge(untraced + traced)
        return self.outcome(metrics, {"digest": untraced[0].digest,
                                      "samples": len(traced),
                                      "counts": untraced[0].counts})
