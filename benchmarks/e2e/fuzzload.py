"""fuzz_checked: harness-generated scenario documents through ``run_trial``.

The documents are drawn here, from the harness seed, not by the fuzzer's
own generator: coverage feedback and bug fixes change what ``run_fuzz``
would generate, and a benchmark needs the same inputs on both sides of a
comparison.  Every document runs DiSOM with the inline checkers on; 70 %
inject one crash and 40 % add wire jitter.  The shares are exact within
every block of twenty documents, so any prefix the time budget selects
has the same mix.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Tuple

from benchmarks.e2e import stats
from benchmarks.e2e.spans import SpanRecorder, installed, layer_metrics
from benchmarks.e2e.workload import Budget, Workload

DOCUMENTS = 600
#: Trials per host-speed probe (about 55 ms of work).
GROUP = 4

#: Small parameter pools per workload (run length and sharing density).
_PARAMS: Dict[str, Dict[str, tuple]] = {
    "synthetic": {"rounds": (8, 12, 15, 20), "objects": (3, 5, 6, 8),
                  "read_ratio": (0.2, 0.5, 0.8)},
    "pipeline": {"items": (6, 10, 12), "stage_cost": (1.0, 2.0)},
    "sor": {"rows_per_block": (2, 3), "iterations": (3, 4, 6)},
}


def documents(seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` canonical scenario documents, a pure function of ``seed``."""
    from repro.server.scenario import validate_scenario

    rng = random.Random(f"fuzz_checked:{seed}")
    out: List[Dict[str, Any]] = []
    while len(out) < count:
        workloads = ["synthetic"] * 12 + ["pipeline"] * 4 + ["sor"] * 4
        crash = [True] * 14 + [False] * 6
        jitter = [True] * 8 + [False] * 12
        for flags in (workloads, crash, jitter):
            rng.shuffle(flags)
        for workload, crashes, jittery in zip(workloads, crash, jitter):
            processes = rng.randint(3, 6)
            document: Dict[str, Any] = {
                "kind": "workload", "workload": workload, "baseline": "disom",
                "processes": processes, "seed": rng.randrange(1 << 16),
                "params": {name: rng.choice(pool) for name, pool
                           in sorted(_PARAMS[workload].items())},
                "interval": round(rng.uniform(8.0, 120.0), 1),
                "check": True,
            }
            if crashes:
                document["crashes"] = [[rng.randrange(processes),
                                        round(rng.uniform(5.0, 80.0), 1)]]
            if jittery:
                document["latency"] = {
                    "base": round(rng.uniform(0.5, 3.0), 2),
                    "jitter": round(rng.uniform(0.1, 2.0), 2)}
            out.append(validate_scenario(document).as_dict())
    return out[:count]


class FuzzWorkload(Workload):
    def __init__(self, name: str, seed: int, smoke: bool, work_dir: str) -> None:
        super().__init__(name, seed, smoke, work_dir)
        self.documents: List[Dict[str, Any]] = []

    def setup(self) -> None:
        count = DOCUMENTS // 20 if self.smoke else DOCUMENTS
        self.documents = documents(self.seed, count)
        self._trial(self.documents[-1])

    def close(self) -> None:
        self.documents = []

    def _trial(self, document: Dict[str, Any]) -> float:
        from repro.fuzz.engine import run_trial

        started = time.perf_counter()
        outcome = run_trial(document)
        took = time.perf_counter() - started
        self.note(outcome["status"] in ("ok", "aborted"),
                  f"trial ended {outcome['status']}: "
                  f"{outcome.get('message', '')[:200]}")
        return took

    def _trials(self, budget: float, floor: int,
                unchecked: bool = False) -> Tuple[List[float], List[float]]:
        """Trials in document order until ``budget`` seconds elapsed.

        Returns (seconds per trial at reference host speed, as read):
        the host's slowness is probed after every ``GROUP`` trials.
        """
        raw: List[float] = []
        regions: List[int] = []
        going = Budget(budget, floor)
        region = self.pace.probe()
        while going.more(len(raw)):
            for _ in range(GROUP):
                document = self.documents[len(raw) % len(self.documents)]
                if unchecked:
                    document = dict(document, check=False)
                raw.append(self._trial(document))
                regions.append(region)
            if len(raw) >= 2 * floor:
                self.mark_rss()
            region = self.pace.probe()
        return [self.pace.corrected(took, where)
                for took, where in zip(raw, regions)], raw

    def measure(self, seconds: float) -> Dict[str, Any]:
        samples, raw = self._trials(seconds, 10 if self.smoke else 100)
        return self.outcome(
            {"ops_per_s": len(samples) / sum(samples),
             "op_ms_p50": stats.median(samples) * 1000.0},
            {"samples": len(samples),
             "trial_ms_p90": stats.percentile(samples, 0.90) * 1000.0,
             "uncorrected": {"ops_per_s": len(raw) / sum(raw),
                             "op_ms_p50": stats.median(raw) * 1000.0}})

    def measure_traced(self, seconds: float) -> Dict[str, Any]:
        from repro.fuzz.engine import run_fuzz

        floor = 10 if self.smoke else 100
        checked, _ = self._trials(seconds * 0.25, floor)
        # The same documents without the checkers: what checking costs.
        unchecked, _ = self._trials(0.0, len(checked), unchecked=True)
        metrics = {
            "fuzz.trial_ms_p50": stats.median(checked) * 1000.0,
            "fuzz.trial_ms_p90": stats.percentile(checked, 0.90) * 1000.0,
            "fuzz.unchecked_trial_ms_p50": stats.median(unchecked) * 1000.0,
            "verify.share": 1.0 - sum(unchecked) / sum(checked),
        }

        recorder = SpanRecorder()
        with installed(recorder):
            traced, traced_raw = self._trials(0.0, len(checked))
            fold = recorder.fold()
        # Self seconds per trial, like the per-run figures of the sims.
        per_trial = {layer: {field: value / len(traced)
                             for field, value in row.items()}
                     for layer, row in fold.items()}
        metrics.update(layer_metrics([per_trial],
                                     [sum(traced_raw) / len(traced_raw)]))
        metrics["trace.overhead_ratio"] = sum(traced) / sum(checked)

        # The fuzzer's own loop (generation, coverage map) on top of trials.
        budget = 16 if self.smoke else 128
        started = time.perf_counter()
        report = run_fuzz(budget_trials=budget, seed=self.seed, jobs=1,
                          shrink=False, budget_seconds=seconds * 0.25)
        metrics["fuzz.loop_trials_per_s"] = (
            report.trials / (time.perf_counter() - started))
        metrics["fuzz.coverage_features"] = len(report.coverage)
        return self.outcome(metrics, {"samples": len(checked)})
