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

import json
import re
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


def _lines(*roots: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for root in roots for path in root.rglob("*.py"))


MEASURES = {
    "src-lines": lambda: _lines(SRC),
    "benchmark-lines": lambda: _lines(REPO / "benchmarks", SRC / "perf"),
    "strict-xfail-sites": lambda: _matches(
        REPO / "tests", r"mark\.xfail\(", skip=Path(__file__).name),
    "known-unfixed-signatures": _known_unfixed,
    "fuzz-allowlist": lambda: len(json.loads(
        (REPO / "tests" / "corpus" / "allowlist.json").read_text())),
    "analysis-baseline": lambda: len(json.loads(
        (REPO / "ANALYSIS_baseline.json").read_text())["suppressions"]),
    "inline-allows": lambda: _matches(SRC, r"# analyze: allow\([a-z]"),
    "worker-spawn-sites": lambda: _matches(SRC / "parallel", r"\bProcess\("),
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
