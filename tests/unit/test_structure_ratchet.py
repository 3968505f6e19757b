"""Structural ratchet: the next fork should show up as a red diff.

``tests/structure_ratchet.json`` holds a handful of numeric questions
about the shape of the repository, each with the value it had when it
was last (deliberately) re-recorded.  Every answer must stay
``<= baseline``: a second worker-spawn site, a new suppression, another
expected failure or a growing source tree fails here and has to be
either undone or argued for by editing the JSON in the same change.
When an answer drops, lower the baseline to lock the gain in.
"""

from __future__ import annotations

import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
RATCHET = json.loads((REPO / "tests" / "structure_ratchet.json").read_text())


def _matches(root: Path, pattern: str, skip: str = "") -> int:
    return sum(len(re.findall(pattern, path.read_text()))
               for path in sorted(root.rglob("*.py")) if path.name != skip)


def _known_unfixed() -> int:
    from tests.integration.test_fuzz_corpus import KNOWN_UNFIXED

    return len(KNOWN_UNFIXED)


def _settable_leaves(cls: type) -> int:
    """Init fields of a config dataclass, nested dataclasses expanded."""
    hints = typing.get_type_hints(cls)
    return sum(_settable_leaves(hints[f.name])
               if dataclasses.is_dataclass(hints[f.name]) else 1
               for f in dataclasses.fields(cls) if f.init)


def _config_knobs() -> int:
    from repro import CheckpointPolicy, ClusterConfig

    return _settable_leaves(ClusterConfig) + _settable_leaves(CheckpointPolicy)


def _lines(*roots: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for root in roots for path in root.rglob("*.py"))


MEASURES = {
    "src-lines": lambda: _lines(SRC),
    "benchmark-lines": lambda: _lines(REPO / "benchmarks", SRC / "perf"),
    "strict-xfail-sites": lambda: _matches(
        REPO / "tests", r"mark\.xfail\(", skip=Path(__file__).name),
    "known-unfixed-signatures": _known_unfixed,
    "config-knobs": _config_knobs,
    "fuzz-allowlist": lambda: len(json.loads(
        (REPO / "tests" / "corpus" / "allowlist.json").read_text())),
    "analysis-baseline": lambda: len(json.loads(
        (REPO / "ANALYSIS_baseline.json").read_text())["suppressions"]),
    "inline-allows": lambda: _matches(SRC, r"# analyze: allow\([a-z]"),
    "worker-spawn-sites": lambda: _matches(SRC / "parallel", r"\bProcess\("),
    "pool-sites": lambda: (
        _matches(SRC, r"\b(?:RunPool|PoolService)\(")
        - _matches(SRC / "parallel", r"\b(?:RunPool|PoolService)\(")),
    "cluster-build-sites": lambda: (
        _matches(SRC, r"DisomSystem\(") - _matches(SRC / "cluster",
                                                   r"DisomSystem\(")),
    "observation-side-doors": lambda: _matches(
        SRC, r"\.sink\b|send_hooks|metrics_history|bind_observers"
             r"|attach_to\(|_wire_observers|from_record|events_from_trace"
             r"|feed_record|\.bind\(observers"
             r"|acquire_observer|_acquire_history|purge_granted"),
    # One match per line: the anchored prefix swallows the rest of it.
    "cluster-protocol-probes": lambda: _matches(
        SRC / "cluster", r"(?m)^.*\b(?:getattr|hasattr)\("),
    "cluster-scheme-names": lambda: _matches(
        SRC / "cluster",
        r"(?m)^.*(?:checkpoint\.(?:recovery|protocol)|RecoveryManager"
        r"|answer_recovery_request|DisomCheckpointProtocol"
        r"|MessageKind\.(?:RECOVERY_[A-Z]+|DUMMY_SHIP|CKPT_GC|ABORT))"),
}


def test_every_question_has_a_measure_and_vice_versa():
    assert sorted(RATCHET) == sorted(MEASURES)


@pytest.mark.parametrize("question", sorted(RATCHET))
def test_answer_is_no_worse_than_recorded(question):
    result, baseline = MEASURES[question](), RATCHET[question]["baseline"]
    assert result <= baseline, (
        f"{RATCHET[question]['question']} -> {result}, recorded baseline "
        f"{baseline} (tests/structure_ratchet.json)")
