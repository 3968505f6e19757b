"""The generator side: spawn children, time set-up, assemble the result.

This process never imports ``repro``; it only starts the per-workload
child processes (``child.py``), waits on their pipes and formats what
they report, so nothing it does competes with the measurement.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from benchmarks.e2e import stats
from benchmarks.e2e.spec import ROOT, load_spec, metric_table

#: Set-up samples per run (the measured child plus set-up-only children).
SETUP_SAMPLES = 7
#: Children write their stores and temporary files here, inside the checkout.
WORK_ROOT = ROOT / ".bench_work"
#: A child that has not finished by then is killed (the contract's limit
#: on one run is 180 s).
CHILD_TIMEOUT = 150.0


class BenchmarkError(RuntimeError):
    """A child died or printed something the harness cannot use."""


def _child_env(work_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = work_dir
    return env


def _run_child(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool, work_dir: str,
               setup_only: bool) -> Dict[str, Any]:
    """One child; returns {"setup_s": ..., "result": ... or None}."""
    command = [sys.executable, "-m", "benchmarks.e2e.child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--work-dir", work_dir]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    child = subprocess.Popen(command, cwd=str(ROOT), env=_child_env(work_dir),
                             stdout=subprocess.PIPE, text=True)
    assert child.stdout is not None
    #: Process groups the child started (its ready line names them): a
    #: child killed on the watchdog cannot reap them itself.
    groups: List[int] = []

    def reap() -> None:
        child.kill()
        for group in groups:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass

    watchdog = threading.Timer(CHILD_TIMEOUT, reap)
    watchdog.start()
    try:
        first = child.stdout.readline()
        setup_s = time.perf_counter() - started
        try:
            ready = json.loads(first)
        except ValueError:
            ready = {}
        groups.extend(ready.get("process_groups", []))
        lines = [line for line in child.stdout.read().splitlines()
                 if line.strip()]
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            reap()
            child.wait()
        child.stdout.close()
    if child.returncode != 0:
        raise BenchmarkError(f"{workload}: child exited {child.returncode}")
    try:
        result = json.loads(lines[-1]).get("result") if lines else None
    except ValueError as exc:
        raise BenchmarkError(f"{workload}: unreadable child output") from exc
    if not ready.get("ready") or (result is None) != setup_only:
        raise BenchmarkError(f"{workload}: child printed no result")
    return {"setup_s": setup_s, "result": result}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> Dict[str, Any]:
    """One contract run: the result line's document plus a ``detail`` key."""
    spec = load_spec()
    declared = metric_table(spec, trace)
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=str(WORK_ROOT))
    try:
        measured = _run_child(workload, seed, seconds, trace, smoke,
                              work_dir, setup_only=False)
        setups = [measured["setup_s"]]
        if not trace:
            for _ in range(0 if smoke else SETUP_SAMPLES - 1):
                setups.append(_run_child(workload, seed, seconds, trace,
                                         smoke, work_dir,
                                         setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass   # another run is using it

    outcome = measured["result"]
    values = dict(outcome["metrics"])
    if not trace:
        values["setup_s"] = stats.median(setups)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchmarkError(f"{workload}: metrics not measured: {missing}")
    detail = dict(outcome.get("detail", {}), failures=outcome["failures"],
                  setup_s_samples=setups)
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name],
                           "unit": declared[name]["unit"]}
                    for name in declared},
        "detail": detail,
    }


def result_line(document: Dict[str, Any]) -> str:
    """The contract's last line: exactly four keys."""
    return json.dumps({key: document[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def run_all(seed: int, seconds: float, trace: bool, smoke: bool, runs: int,
            only: Optional[List[str]] = None,
            progress: Any = None) -> Dict[str, Any]:
    """Every workload ``runs`` times: the ``run`` command's result file."""
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]
             if not only or entry["name"] in only]
    document: Dict[str, Any] = {
        "schema": "repro-e2e/v1", "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "workloads": {},
    }
    for name in names:
        rows = []
        for _ in range(runs):
            started = time.perf_counter()
            rows.append(run_workload(name, seed, seconds, trace, smoke))
            if progress is not None:
                progress(name, rows[-1], time.perf_counter() - started)
        document["workloads"][name] = rows
    return document
