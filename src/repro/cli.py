"""Command-line interface.

::

    python -m repro list                          # what's available
    python -m repro demo                          # crash+recovery demo
    python -m repro workload sor --crash 1@40 --timeline
    python -m repro workload synthetic --processes 8 --seed 3 --baseline coordinated
    python -m repro workload tsp --store-dir /tmp/ckpts   # durable checkpoints
    python -m repro workload nbody --check        # inline verification
    python -m repro check                         # analyzers + inline-checked run
    python -m repro check --inline --workload sor --crash 1@40
    python -m repro check --lint-only             # static analysis only
    python -m repro check --seed-fault race       # prove the checker bites
    python -m repro check --seed-fault locks      # prove the analyzer bites
    python -m repro analyze                       # static analyzer suite
    python -m repro experiments E2 E3 --full      # print experiment tables
    python -m repro experiments E1- E11 --check   # experiments under checking
    python -m repro experiments E2 --json out.json --seed 11
    python -m repro experiments --jobs 4          # fan out over 4 workers
    python -m repro storage inspect --store-dir /tmp/ckpts
    python -m repro storage verify --store-dir /tmp/ckpts
    python -m repro storage gc --store-dir /tmp/ckpts
    python -m repro serve                         # scenario server :8723
    python -m repro serve --port 9000 --jobs 4 --cache-dir /tmp/scache
    python -m repro fuzz --budget-trials 150 --seed 7   # schedule fuzzing
    python -m repro fuzz --jobs 4 --update-corpus --budget-seconds 300

Flag spelling is uniform across subcommands: ``--seed`` (RNG seed),
``--check`` (inline verification), ``--store-dir`` (durable on-disk
checkpoint store), ``--json`` (machine-readable report path), ``--jobs``
(worker processes for independent runs; ``1`` = serial, ``0`` = one per
CPU -- results are byte-identical at any value).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.analysis.report import Table
from repro.analysis.runner import ANALYZERS
from repro.analysis.timeline import render_timeline
from repro.baselines import ALL_BASELINES
from repro.experiments import ALL_EXPERIMENTS
from repro.memory.model import CONSISTENCY_MODELS
from repro.verify.seeded import FAULT_KINDS
from repro.workloads import ALL_WORKLOADS

#: Analyzer names accepted by ``repro analyze --analyzer``.
ANALYZER_NAMES = tuple(ANALYZERS)


def _parse_crash(spec: str) -> tuple[int, float]:
    try:
        pid, when = spec.split("@", 1)
        return int(pid), float(when)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"crash spec must look like PID@TIME, got {spec!r}"
        ) from exc


def _write_json(path: str, report: object) -> None:
    """Write a command's ``--json`` report: indented, newline-terminated
    (values JSON cannot spell, such as enums, are written as strings)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
        handle.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiSOM entry-consistency checkpoint protocol "
                    "(PODC 1994) -- simulated cluster CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, baselines and experiments")

    demo = sub.add_parser("demo", help="counter demo with crash + recovery")
    demo.add_argument("--seed", type=int, default=42)

    workload = sub.add_parser("workload", help="run one workload")
    workload.add_argument("name", choices=sorted(ALL_WORKLOADS))
    workload.add_argument("--processes", type=int, default=4)
    workload.add_argument("--seed", type=int, default=7)
    workload.add_argument("--interval", type=float, default=40.0,
                          help="checkpoint interval (simulated time units)")
    workload.add_argument("--baseline", choices=sorted(ALL_BASELINES),
                          default=None,
                          help="fault-tolerance scheme (default: disom on "
                               "the entry backend, none otherwise)")
    workload.add_argument("--consistency", choices=CONSISTENCY_MODELS,
                          default="entry",
                          help="memory consistency backend (the DiSOM "
                               "checkpoint protocol requires 'entry')")
    workload.add_argument("--crash", type=_parse_crash, action="append",
                          default=[], metavar="PID@TIME")
    workload.add_argument("--timeline", action="store_true",
                          help="print the failure/recovery timeline")
    workload.add_argument("--store-dir", default=None, metavar="DIR",
                          help="durable on-disk checkpoint store (default: "
                               "volatile in-memory)")
    workload.add_argument("--check", action="store_true",
                          help="attach the inline verification layer (race "
                               "detector + invariant checker)")
    workload.add_argument("--json", default=None, metavar="PATH",
                          help="also write the run summary as JSON")

    check = sub.add_parser(
        "check",
        help="verification passes: static analysis (determinism rules "
             "included), EC race detection and protocol invariant checking "
             "over a workload run")
    check.add_argument("--workload", choices=sorted(ALL_WORKLOADS),
                       default="synthetic")
    check.add_argument("--processes", type=int, default=3)
    check.add_argument("--seed", type=int, default=7)
    check.add_argument("--interval", type=float, default=30.0,
                       help="checkpoint interval (simulated time units)")
    check.add_argument("--crash", type=_parse_crash, action="append",
                       default=[], metavar="PID@TIME")
    check.add_argument("--inline", action="store_true",
                       help="run the inline passes over the workload "
                            "(the default unless --lint-only)")
    check.add_argument("--lint-only", action="store_true",
                       help="run only the static analysis (determinism "
                            "rules and the other analyzers)")
    check.add_argument("--seed-fault", choices=FAULT_KINDS, default=None,
                       help="plant a known fault -- a bad trace/schedule for "
                            "the runtime checkers, a bad source snippet for "
                            "the analyzer of that name -- and verify it is "
                            "detected (exits nonzero when flagged; CI "
                            "inverts)")
    check.add_argument("--store-dir", default=None, metavar="DIR",
                       help="durable on-disk checkpoint store for the "
                            "checked run")
    check.add_argument("--consistency", choices=CONSISTENCY_MODELS,
                       default="entry",
                       help="memory consistency backend for the checked "
                            "run (non-entry backends run without the "
                            "DiSOM checkpoint protocol)")
    check.add_argument("--json", default=None, metavar="PATH",
                       help="also write the check report as JSON")

    analyze = sub.add_parser(
        "analyze",
        help="whole-program static analysis: lock discipline, simulation "
             "purity (interprocedural), handler/phase exhaustiveness and "
             "exception safety")
    analyze.add_argument("--against", default=None, metavar="PATH",
                         help="baseline-suppressions file (default: the "
                              "checked-in ANALYSIS_baseline.json when it "
                              "exists)")
    analyze.add_argument("--no-baseline", action="store_true",
                         help="ignore any baseline: report every finding")
    analyze.add_argument("--write-baseline", default=None, metavar="PATH",
                         nargs="?", const="",
                         help="record the current findings as the new "
                              "baseline (default path: the checked-in "
                              "location) and exit zero")
    analyze.add_argument("--analyzer", action="append", default=None,
                         choices=sorted(ANALYZER_NAMES), metavar="NAME",
                         help="run only this analyzer (repeatable; "
                              f"choices: {', '.join(sorted(ANALYZER_NAMES))})")
    analyze.add_argument("--root", default=None, metavar="DIR",
                         help="package directory to analyze (default: the "
                              "installed repro package)")
    analyze.add_argument("--json", default=None, metavar="PATH",
                         help="also write the full report as JSON")

    experiments = sub.add_parser("experiments", help="run experiment tables")
    experiments.add_argument("ids", nargs="*",
                             help="experiment ids, each exact or a unique "
                                  "prefix (default: all)")
    experiments.add_argument("--full", action="store_true",
                             help="wider parameter sweeps")
    experiments.add_argument("--check", action="store_true",
                             help="run every experiment workload with the "
                                  "inline verification layer attached")
    experiments.add_argument("--seed", type=int, default=None,
                             help="override every experiment's per-run seed")
    experiments.add_argument("--store-dir", default=None, metavar="DIR",
                             help="route all experiment checkpoints through "
                                  "a durable on-disk store")
    experiments.add_argument("--json", default=None, metavar="PATH",
                             help="also write per-experiment findings as JSON")
    experiments.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes for independent "
                                  "experiment runs (0 = one per CPU; "
                                  "default 1 = serial; results are "
                                  "identical either way)")

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided failure-schedule fuzzing: random crash "
             "schedules under the inline checkers, violations shrunk to "
             "minimal repros")
    fuzz.add_argument("--budget-trials", type=int, default=100, metavar="N",
                      help="schedules to execute (default 100)")
    fuzz.add_argument("--budget-seconds", type=float, default=None,
                      metavar="S",
                      help="wall cap checked between batches; a capped run "
                           "is a prefix of the uncapped one (default: none)")
    fuzz.add_argument("--seed", type=int, default=7,
                      help="master seed; the whole run is a pure function "
                           "of it (default 7)")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for trial batches (0 = one "
                           "per CPU; results are identical at any value)")
    fuzz.add_argument("--corpus-dir", default=None, metavar="DIR",
                      help="minimized-repro corpus / allowlist location "
                           "(default tests/corpus)")
    fuzz.add_argument("--update-corpus", action="store_true",
                      help="write each new finding's minimized repro into "
                           "the corpus")
    fuzz.add_argument("--dry-run", action="store_true",
                      help="with --update-corpus: print the corpus entries "
                           "that would be written without writing them")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip minimization of new findings")
    fuzz.add_argument("--coverage-out", default=None, metavar="PATH",
                      help="write the coverage map as canonical JSON")
    fuzz.add_argument("--log-out", default=None, metavar="PATH",
                      help="write the per-trial log as canonical JSONL")
    fuzz.add_argument("--json", default=None, metavar="PATH",
                      help="also write the findings summary as JSON")

    serve = sub.add_parser(
        "serve",
        help="run the scenario server: accepts JSON scenario requests "
             "over HTTP, caches results by content address")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8723,
                       help="bind port (default 8723; 0 = ephemeral)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="warm worker processes executing scenarios "
                            "(0 = one per CPU; default 1)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="durable on-disk result cache (default: "
                            "in-memory only)")
    serve.add_argument("--cache-entries", type=int, default=1024,
                       metavar="N",
                       help="result-cache capacity before LRU eviction "
                            "(default 1024)")
    serve.add_argument("--timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="per-scenario deadline; past it the worker is "
                            "cancelled and the request answers 504 "
                            "(default 300)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                       help="admitted-but-unfinished scenario bound; "
                            "beyond it requests answer 429 (default 16)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each request to stderr")

    storage = sub.add_parser(
        "storage", help="inspect an on-disk checkpoint store")
    storage.add_argument("action", choices=("inspect", "verify", "gc"),
                         help="inspect: list slots; verify: CRC-check all "
                              "images; gc: remove stale temp/segment files")
    storage.add_argument("--store-dir", required=True, metavar="DIR",
                         help="checkpoint store directory")
    return parser


def cmd_list() -> int:
    table = Table("workloads", ["name", "parameters"])
    for name in sorted(ALL_WORKLOADS):
        params = ALL_WORKLOADS[name].default_params()
        table.add_row(name, ", ".join(f"{k}={v}" for k, v in sorted(params.items())))
    print(table.render())
    print()
    print("baselines:", ", ".join(sorted(ALL_BASELINES)))
    print("experiments:", ", ".join(ALL_EXPERIMENTS))
    return 0


def cmd_demo(seed: int) -> int:
    from repro import (
        AcquireWrite,
        CheckpointPolicy,
        ClusterConfig,
        Compute,
        DisomSystem,
        Program,
        ProgramContext,
        Release,
    )
    from repro.threads.program import ProgramGen

    def body(ctx: ProgramContext) -> ProgramGen:
        for _ in range(8):
            value = yield AcquireWrite("counter")
            yield Compute(1.0)
            yield Release.of("counter", value + 1)
            yield Compute(2.0)
        return "done"

    system = DisomSystem(
        ClusterConfig(processes=4, seed=seed, trace=True),
        CheckpointPolicy(interval=25.0),
    )
    system.add_object("counter", initial=0, home=0)
    for pid in range(4):
        system.spawn(pid, Program("inc", body, {}))
    system.inject_crash(2, at_time=30.0)
    result = system.run()
    print(render_timeline(system.kernel.trace))
    print()
    print(f"counter = {result.final_objects['counter']} (expected 32); "
          f"survivor rollbacks = {result.metrics.total_survivor_rollbacks}")
    return 0 if result.final_objects["counter"] == 32 else 1


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.api import build_workload, default_baseline

    workload = ALL_WORKLOADS[args.name]()
    baseline = args.baseline or default_baseline(args.consistency)
    system = build_workload(
        workload, processes=args.processes, seed=args.seed,
        interval=args.interval, crashes=args.crash, check=args.check,
        store_dir=args.store_dir, baseline=baseline,
        consistency=args.consistency, trace=args.timeline,
    )
    result = system.run()

    if args.timeline:
        print(render_timeline(system.kernel.trace))
        print()
    table = Table(f"{workload.describe()} on {baseline} "
                  f"({args.consistency} consistency)",
                  ["metric", "value"])
    check = workload.verify(result) if result.completed else None
    table.add_row("completed", result.completed)
    table.add_row("aborted", result.aborted)
    table.add_row("verified", check.ok if check else "-")
    table.add_row("duration", round(result.duration, 1))
    table.add_row("messages", result.net["total_messages"])
    table.add_row("checkpoint messages", result.net["checkpoint_messages"])
    table.add_row("log bytes", result.metrics.total_log_bytes)
    table.add_row("checkpoints", result.metrics.total_checkpoints)
    table.add_row("stable writes", result.stable_writes)
    if args.store_dir:
        table.add_row("store dir", args.store_dir)
        table.add_row("store bytes written", result.storage["bytes_written"])
    table.add_row("survivor rollbacks", result.metrics.total_survivor_rollbacks)
    if result.check_report is not None:
        report = result.check_report
        table.add_row("check races", len(report.races))
        table.add_row("check violations", len(report.violations))
        table.add_row("check events", report.events_checked)
        table.add_row("check overhead (ms)",
                      round(report.overhead_seconds * 1000.0, 1))
    for record in result.recoveries:
        table.add_row(
            f"recovery P{record.pid}",
            f"detected t={record.detected_at:.1f}, "
            f"duration {record.duration:.1f}, "
            f"replayed {record.replayed_acquires}"
            if record.duration is not None else "incomplete",
        )
    if result.aborted:
        table.add_row("abort reason", result.abort_reason)
    print(table.render())
    if result.check_report is not None and not result.check_report.ok:
        print()
        for problem in result.check_report.problem_strings():
            print(problem)
    ok = (result.completed and (check is None or check.ok)
          and (result.check_report is None or result.check_report.ok))
    if args.json:
        summary = {
            "workload": args.name,
            "baseline": baseline,
            "consistency": args.consistency,
            "processes": args.processes,
            "seed": args.seed,
            "completed": result.completed,
            "aborted": result.aborted,
            "verified": check.ok if check else None,
            "duration": result.duration,
            "net": result.net,
            "stable_writes": result.stable_writes,
            "peak_log_bytes": result.peak_log_bytes,
            "recoveries": len(result.recoveries),
            "invariant_violations": list(result.invariant_violations),
        }
        _write_json(args.json, summary)
    return 0 if (ok or result.aborted) else 1


def cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.findings import Finding
    from repro.errors import InvariantViolation

    if args.seed_fault:
        from repro.verify.seeded import run_seeded_fault

        detections = run_seeded_fault(args.seed_fault)
        print(f"seeded fault '{args.seed_fault}': "
              f"{len(detections)} detection(s)")
        for detection in detections:
            if isinstance(detection, InvariantViolation):
                print(detection)
                print(detection.format_slice())
            elif isinstance(detection, Finding):
                print(f"  {detection.render()}")
            else:
                print(f"race: {detection}")
        if not detections:
            print("NOT DETECTED -- the checker failed to flag a known fault")
            return 0  # CI inverts this: undetected faults must exit zero
        return 1

    from repro.analysis.runner import run_analysis

    analysis = run_analysis()
    print(f"static analysis: {analysis.summary()}")
    for finding in analysis.new:
        print(f"  {finding}")
    failures = len(analysis.new)
    if args.lint_only:
        return 1 if failures else 0

    from repro.api import build_workload

    workload = ALL_WORKLOADS[args.workload]()
    result = build_workload(
        workload, processes=args.processes, seed=args.seed,
        interval=args.interval, crashes=args.crash, check=True,
        store_dir=args.store_dir, consistency=args.consistency,
    ).run()
    report = result.check_report
    assert report is not None
    verified = workload.verify(result) if result.completed else None
    print(f"workload {args.workload} (processes={args.processes}, "
          f"seed={args.seed}, consistency={args.consistency}"
          + "".join(f", crash {pid}@{when:g}" for pid, when in args.crash)
          + f"): completed={result.completed}, "
          f"verified={verified.ok if verified else '-'}")
    print(report.summary())
    for race in report.races:
        print(f"race: {race}")
    for violation in report.violations:
        print(violation)
        print(violation.format_slice())
    if not result.completed or (verified is not None and not verified.ok):
        failures += 1
    if not report.ok:
        failures += 1
    if args.json:
        summary = {
            "workload": args.workload,
            "processes": args.processes,
            "seed": args.seed,
            "consistency": args.consistency,
            "lint_findings": len(analysis.new),
            "completed": result.completed,
            "verified": verified.ok if verified else None,
            "races": [str(race) for race in report.races],
            "violations": [str(v) for v in report.violations],
            "events_checked": report.events_checked,
            "ok": not failures,
        }
        _write_json(args.json, summary)
    return 1 if failures else 0


def cmd_storage(action: str, store_dir: str) -> int:
    from repro.storage.backend import FileBackend

    if not os.path.isdir(store_dir):
        print(f"not a checkpoint store directory: {store_dir}")
        return 1
    backend = FileBackend(store_dir)

    if action == "gc":
        removed = backend.gc()
        print(f"removed {removed} unreferenced file(s) from {store_dir}")
        return 0

    reports = backend.verify()
    table = Table(f"checkpoint store {store_dir}",
                  ["pid", "slot", "seq", "taken at", "bytes", "sections",
                   "status"])
    for info in reports:
        status = "latest" if info.latest else ("ok" if info.ok else "CORRUPT")
        table.add_row(
            info.pid, info.slot,
            info.seq if info.seq is not None else "-",
            round(info.taken_at, 1) if info.taken_at is not None else "-",
            info.stored_bytes, info.sections, status,
        )
    print(table.render())
    recoverable = all(
        any(info.ok for info in reports if info.pid == pid)
        for pid in backend.pids()
    )
    if action == "verify":
        corrupt = sum(1 for info in reports if not info.ok)
        print()
        print(f"{len(reports)} slot(s), {corrupt} corrupt; every process "
              f"{'has' if recoverable else 'DOES NOT have'} an intact image")
        return 0 if recoverable else 1
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.experiments.runner import run_experiments
    from repro.parallel import WorkerFailure

    try:
        outcomes, merged = run_experiments(
            ids=args.ids, quick=not args.full, check=args.check,
            jobs=args.jobs, seed=args.seed, store_dir=args.store_dir)
    except ConfigError as exc:
        print(f"repro experiments: error: {exc}", file=sys.stderr)
        return 2
    failures = 0
    findings: dict = {}
    for exp_id, outcome in outcomes:
        if isinstance(outcome, WorkerFailure):
            print(f"### {exp_id}: FAILED with "
                  f"{outcome.error_type}: {outcome.message}")
            findings[exp_id] = {
                "failed": f"{outcome.error_type}: {outcome.message}"}
            failures += 1
            continue
        print(outcome.render())
        print()
        findings[exp_id] = {
            "title": outcome.title,
            "claim_holds": outcome.claim_holds,
            "findings": outcome.findings,
        }
        if outcome.claim_holds is False:
            failures += 1
    if merged is not None:
        print(merged.summary())
        if not merged.ok:
            failures += 1
    if args.json:
        _write_json(args.json, findings)
    return 1 if failures else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.findings import default_baseline_path, write_baseline
    from repro.analysis.runner import run_analysis

    report = run_analysis(
        root=Path(args.root) if args.root else None,
        baseline_path=Path(args.against) if args.against else None,
        analyzers=args.analyzer,
        use_default_baseline=not args.no_baseline,
    )
    print(report.summary())
    for finding in report.new:
        print(finding.render())
    for key in report.stale_keys:
        print(f"stale baseline key (finding fixed? retire it): {key}")
    if args.json:
        _write_json(args.json, report.as_dict())
        print(f"report written to {args.json}")
    if args.write_baseline is not None:
        target = (Path(args.write_baseline) if args.write_baseline
                  else default_baseline_path())
        write_baseline(target, report.findings)
        print(f"baseline written to {target} "
              f"({len(report.findings)} suppression(s))")
        return 0
    return 1 if report.new else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        DEFAULT_CORPUS_DIR,
        load_allowlist,
        make_entry,
        run_fuzz,
        write_entry,
    )

    corpus_dir = args.corpus_dir or DEFAULT_CORPUS_DIR
    known = load_allowlist(corpus_dir)
    report = run_fuzz(
        budget_trials=args.budget_trials,
        seed=args.seed,
        jobs=args.jobs,
        known_signatures=known,
        shrink=not args.no_shrink,
        budget_seconds=args.budget_seconds,
    )
    print(f"fuzz (seed={args.seed}): {report.summary()}"
          + (" [wall-capped]" if report.wall_capped else ""))
    for finding in report.findings:
        tag = "known" if finding.known else "NEW"
        print(f"  [{tag}] trial {finding.trial}: {finding.signature}")
        if finding.minimized is not None:
            print(f"         minimized in {finding.shrink_runs} runs: "
                  f"{json.dumps(finding.minimized)}")
    if args.coverage_out:
        with open(args.coverage_out, "w", encoding="ascii") as handle:
            handle.write(report.coverage.to_json())
        print(f"coverage map written to {args.coverage_out}")
    if args.log_out:
        with open(args.log_out, "w", encoding="ascii") as handle:
            handle.write(report.trial_log())
        print(f"trial log written to {args.log_out}")
    if args.update_corpus:
        for finding in report.new_findings:
            if finding.minimized is None:
                continue
            if args.dry_run:
                from repro.fuzz.corpus import entry_filename

                would = os.path.join(corpus_dir,
                                     entry_filename(finding.minimized))
                print(f"corpus entry would be written (dry run): {would}")
                continue
            path = write_entry(corpus_dir, make_entry(
                finding.minimized, finding.signature, finding.error_type,
                finding.message,
                provenance={"seed": args.seed, "trial": finding.trial,
                            "shrink_runs": finding.shrink_runs}))
            print(f"corpus entry written: {path}")
    if args.json:
        summary = {
            "seed": args.seed,
            "trials": report.trials,
            "wall_capped": report.wall_capped,
            "coverage_features": len(report.coverage),
            "findings": [finding.as_dict() for finding in report.findings],
            "new_findings": len(report.new_findings),
        }
        _write_json(args.json, summary)
    return 1 if report.new_findings else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.app import ScenarioServer

    try:
        server = ScenarioServer(
            args.host, args.port, jobs=args.jobs, cache_dir=args.cache_dir,
            cache_entries=args.cache_entries, request_timeout=args.timeout,
            max_pending=args.max_queue, quiet=not args.verbose)
    except OSError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    host, port = server.address
    print(f"repro scenario server listening on http://{host}:{port}")
    print(f"  code version : {server.code_version}")
    print(f"  workers      : {server.service.jobs} warm "
          f"(timeout {args.timeout:g}s, queue bound {args.max_queue})")
    print(f"  result cache : "
          + (f"{args.cache_dir} (disk, {args.cache_entries} entries)"
             if args.cache_dir else
             f"in-memory ({args.cache_entries} entries)"))
    print("  endpoints    : POST /scenario; GET /healthz /metrics "
          "/version /registry")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "demo":
        return cmd_demo(args.seed)
    if args.command == "workload":
        return cmd_workload(args)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "experiments":
        return cmd_experiments(args)
    if args.command == "fuzz":
        return cmd_fuzz(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "storage":
        return cmd_storage(args.action, args.store_dir)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
