"""Replay the fuzzer's minimized-repro corpus under the inline checkers.

Every entry in ``tests/corpus/`` is a scenario the fuzzer found, shrunk
and checked in.  The goal state for each entry is a *clean* replay --
the bug it documents gets fixed and the entry becomes a plain
regression test.  Until then, entries whose bug class is listed in
:data:`KNOWN_UNFIXED` carry ``xfail(strict=True)``: the replay is
expected to still trip the checker, and the moment a fix lands the
strict XPASS forces this list (and the allowlist role of the entry) to
be revisited rather than silently rotting.

The replay also guards corpus fidelity: when an entry does fail, it
must fail with the *recorded* signature -- a different violation means
the checked-in repro has drifted onto another bug.  Only the recorded
failure (:class:`StillTrips`) counts as expected, so drift fails even
a known-unfixed entry.
"""

import pytest

from repro.fuzz import DEFAULT_CORPUS_DIR, load_corpus, run_trial

#: Bug-class signatures documented in the corpus but not yet fixed.
#: Keyed by the stable failure signature (digits folded to ``#``).
KNOWN_UNFIXED = (
    # Post-recovery write/write race on the sor barrier object under
    # the coordinated-checkpointing baseline with wire jitter: the
    # baseline's restart loses the happens-before edge the barrier
    # relied on.
    "InvariantViolation:[inline-check] inline verification failed: "
    "check: # race(s), # invariant violation(s); # memory events; "
    "race: race on sor.barrier: read is concurrent with the l",
    # The same baseline and document crashed later: the first race the
    # detector reports is a write after a read rather than a read.
    "InvariantViolation:[inline-check] inline verification failed: "
    "check: # race(s), # invariant violation(s); # memory events; "
    "race: race on sor.barrier: write is concurrent with a pr",
    # Class (d), a single-crash Theorem 1 violation under DiSOM in the
    # recovery finalisation steps: a survivor keeps a read copy that the
    # recovered owner never invalidates (synthetic) ...
    "InvariantViolation:[inline-check] inline verification failed: "
    "check: # race(s), # invariant violation(s); # memory events; "
    "[recovery-coherence] P# holds a stale read copy of 'obj#",
    # ... and a post-recovery sor.barrier race whose writer is the
    # recovered thread (sor with jitter, crash before the first periodic
    # checkpoint).  The coordinated baseline trips the same signature.
    "InvariantViolation:[inline-check] inline verification failed: "
    "check: # race(s), # invariant violation(s); # memory events; "
    "race: race on sor.barrier: write is concurrent with the ",
)

_ENTRIES = load_corpus(DEFAULT_CORPUS_DIR)


class StillTrips(AssertionError):
    """An entry's replay failed with its recorded signature."""


def _params():
    for entry in _ENTRIES:
        entry_id = entry["_path"].rsplit("/", 1)[-1]
        signature = entry["failure"]["signature"]
        marks = []
        if signature in KNOWN_UNFIXED:
            marks.append(pytest.mark.xfail(
                strict=True, raises=StillTrips,
                reason=f"known unfixed bug class: {signature[:80]}"))
        yield pytest.param(entry, id=entry_id, marks=marks)


def test_corpus_is_nonempty():
    """The corpus ships with the repo; an empty load means the loader
    or the checkout is broken, not that there are no known bugs."""
    assert _ENTRIES, f"no corpus entries found in {DEFAULT_CORPUS_DIR}"


@pytest.mark.parametrize("entry", _params())
def test_corpus_entry_replays_clean(entry):
    """Goal state: the minimized scenario runs clean under checkers."""
    outcome = run_trial(entry["scenario"])
    if outcome["status"] == "violation":
        recorded = entry["failure"]["signature"]
        assert outcome["signature"] == recorded, (
            f"corpus drift: {entry['_path']} now fails with\n"
            f"  {outcome['signature']}\nnot the recorded\n  {recorded}"
        )
        raise StillTrips(
            f"{entry['_path']} still trips: {outcome['message'][:200]}")


class TestSeededScheduleShrink:
    """The end-to-end shrink acceptance: the padded known-bad schedule
    from :func:`repro.verify.seeded.seeded_bad_schedule` (5 elements:
    1 real crash, the wire jitter, 2 inert decoy crashes, 1 inert
    highwater) must reduce to at most 3 elements that still trip the
    same checker."""

    def test_shrinks_to_core_elements(self):
        from repro.fuzz import schedule_elements, shrink_schedule
        from repro.verify.seeded import seeded_bad_schedule

        document = seeded_bad_schedule()
        assert len(schedule_elements(document)) == 5
        outcome = run_trial(document)
        assert outcome["status"] == "violation"
        assert outcome["signature"] == KNOWN_UNFIXED[0]

        minimized, runs = shrink_schedule(document, outcome["signature"])
        assert minimized is not None
        assert len(schedule_elements(minimized)) <= 3
        assert runs > 0
        replay = run_trial(minimized)
        assert replay["status"] == "violation"
        assert replay["signature"] == outcome["signature"]


@pytest.mark.parametrize(
    "entry", _ENTRIES,
    ids=[entry["_path"].rsplit("/", 1)[-1] for entry in _ENTRIES])
def test_corpus_entry_is_canonical(entry):
    """Entries are written in canonical form under content-addressed
    names -- a hand-edited entry that drifted fails here."""
    from repro.fuzz.corpus import entry_filename
    from repro.server.scenario import validate_scenario

    spec = validate_scenario(entry["scenario"])
    assert spec.as_dict() == entry["scenario"]
    assert entry["_path"].endswith(entry_filename(entry["scenario"]))
