"""Closed vocabularies: every ``MessageKind.X`` and ``RecoveryPhase.X``
spelled under src/repro names a real member.

A misspelled member is an ``AttributeError`` only on the path that runs
it; this scan finds it in every package, including the ones CI's mypy
does not type-check (``repro.cluster``, ``repro.baselines``).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.checkpoint.recovery import RecoveryPhase
from repro.net.message import MessageKind

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ENUMS = {"MessageKind": MessageKind, "RecoveryPhase": RecoveryPhase}
REFERENCE = re.compile(r"\b(MessageKind|RecoveryPhase)\.([A-Z][A-Z_]*)\b")


def test_every_member_reference_names_a_member():
    seen, unknown = set(), []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for enum_name, member in REFERENCE.findall(line):
                seen.add(enum_name)
                if member not in ENUMS[enum_name].__members__:
                    unknown.append(f"{path.relative_to(SRC)}:{lineno}: "
                                   f"{enum_name}.{member}")
    assert seen == set(ENUMS), "the scan no longer sees both vocabularies"
    assert unknown == []
