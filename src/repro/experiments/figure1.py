"""E1: reproduce Figure 1 -- the consistency classification of the paper's
two-thread execution (states S1, S2 inconsistent; S3 consistent)."""

from __future__ import annotations

from repro.analysis.report import Table
from repro.experiments.base import ExperimentResult
from repro.memory.consistency import (
    AbstractAcquire,
    Cut,
    History,
    check_consistency,
    enumerate_cuts,
)
from repro.types import AcquireType

R, W = AcquireType.READ, AcquireType.WRITE


def figure1_history() -> History:
    """The execution of figure 1 (see tests/unit/test_consistency.py)."""
    history = History()
    history.add("t1", AbstractAcquire("Y", 1, W), AbstractAcquire("X", 0, W))
    history.add("t2", AbstractAcquire("Y", 0, W), AbstractAcquire("Y", 2, R),
                AbstractAcquire("X", 1, R))
    return history


#: The paper's three named system states as cuts (t1-prefix, t2-prefix).
NAMED_STATES = {
    "S1": Cut({"t1": 0, "t2": 2}),
    "S2": Cut({"t1": 1, "t2": 3}),
    "S3": Cut({"t1": 2, "t2": 3}),
}

#: Verdicts printed in the paper's figure caption.
PAPER_VERDICTS = {"S1": False, "S2": False, "S3": True}


def run_figure1(quick: bool = True) -> ExperimentResult:
    """Classify the paper's figure-1 cuts.  The history is fixed, so
    ``quick`` (every runner's one parameter) changes nothing."""
    history = figure1_history()
    table = Table(
        "Figure 1: system-state consistency",
        ["state", "cut (t1,t2)", "paper", "measured", "reason"],
    )
    all_match = True
    for name, cut in NAMED_STATES.items():
        verdict = check_consistency(history, cut)
        expected = PAPER_VERDICTS[name]
        match = verdict.consistent == expected
        all_match = all_match and match
        table.add_row(
            name,
            f"({cut.positions['t1']},{cut.positions['t2']})",
            "consistent" if expected else "inconsistent",
            "consistent" if verdict.consistent else "inconsistent",
            verdict.reason if not verdict.consistent else "-",
        )

    census = Table("Figure 1: exhaustive cut census",
                   ["cuts", "consistent", "inconsistent"])
    verdicts = [check_consistency(history, cut)
                for cut in enumerate_cuts(history)]
    good = sum(1 for v in verdicts if v.consistent)
    census.add_row(len(verdicts), good, len(verdicts) - good)

    return ExperimentResult(
        experiment_id="E1",
        title="Figure 1 consistency classification",
        tables=[table, census],
        findings={"all_named_states_match_paper": all_match,
                  "total_cuts": len(verdicts),
                  "consistent_cuts": good},
        claim_holds=all_match,
    )
