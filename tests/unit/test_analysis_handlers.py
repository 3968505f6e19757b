"""Unit tests for the handler/transition exhaustiveness analyzer."""

from __future__ import annotations

from repro.analysis.findings import load_source_table
from repro.analysis.handlers import analyze_handlers
from repro.verify.seeded import run_seeded_fault

_ENUM = (
    "class MessageKind:\n"
    "    HELLO = 'hello'\n"
    "    GOODBYE = 'goodbye'\n"
    "    PING = 'ping'\n"
    "    PONG = 'pong'\n"
)

_DISPATCHER_FULL = (
    # The table idiom the protocol layers use: one row per kind.
    "from repro.net.message import MessageKind\n"
    "HANDLERS = {\n"
    "    MessageKind.HELLO: 'on_hello',\n"
    "    MessageKind.GOODBYE: 'on_goodbye',\n"
    "    MessageKind.PING: 'on_ping',\n"
    "    MessageKind.PONG: 'on_pong',\n"
    "}\n"
)


def _findings(sources: dict):
    return analyze_handlers(load_source_table(sources))


class TestKindRules:
    def test_fully_dispatched_enum_is_clean(self):
        findings = _findings({
            "repro/net/message.py": _ENUM,
            "repro/cluster/mod.py": _DISPATCHER_FULL,
        })
        assert findings == []

    def test_unknown_member_reference(self):
        user = (
            "from repro.net.message import MessageKind\n"
            "def f():\n"
            "    return MessageKind.HELO\n")
        findings = _findings({
            "repro/net/message.py": _ENUM,
            "repro/cluster/mod.py": _DISPATCHER_FULL,
            "repro/cluster/typo.py": user,
        })
        unknown = [f for f in findings if "nonexistent" in f.message]
        assert len(unknown) == 1 and "HELO" in unknown[0].message
        assert unknown[0].rule == "handler-dispatch"
        assert unknown[0].path == "repro/cluster/typo.py"


class TestSeededFault:
    def test_each_planted_defect_yields_its_finding(self):
        findings = run_seeded_fault("handlers")
        found = sorted((f.rule, f.message.split(":")[0]) for f in findings)
        assert found == [
            ("handler-dispatch", "reference to nonexistent MessageKind.HELO"),
            ("phase-coverage", "phase dispatch over 'manager.phase' has no "
                               "else and does not cover"),
            ("phase-coverage", "recovery phase literal 'replayng' is not in "
                               "RECOVERY_PHASES (loading, collecting, "
                               "replaying, done)"),
        ]
        missing = [f for f in findings if "does not cover" in f.message]
        assert missing[0].message.endswith(": done")


_PHASES = (
    "RECOVERY_PHASES: tuple[str, ...] = (\n"
    "    'loading', 'collecting', 'replaying', 'done', 'aborted',\n"
    ")\n"
)


class TestPhaseRules:
    def test_unknown_phase_literal_in_comparison(self):
        findings = _findings({
            "repro/checkpoint/recovery.py": _PHASES,
            "repro/cluster/mod.py": (
                "def f(self):\n"
                "    if self.phase == 'loadin':\n"
                "        return 1\n"
                "    return 0\n"),
        })
        bad = [f for f in findings if f.rule == "phase-coverage"]
        assert any("'loadin'" in f.message for f in bad)

    def test_unknown_phase_in_setter_call(self):
        findings = _findings({
            "repro/checkpoint/recovery.py": _PHASES,
            "repro/cluster/mod.py": (
                "def f(self):\n"
                "    self._set_phase('finished')\n"),
        })
        assert any("'finished'" in f.message for f in findings
                   if f.rule == "phase-coverage")

    def test_known_phases_everywhere_is_clean(self):
        findings = _findings({
            "repro/checkpoint/recovery.py": _PHASES,
            "repro/cluster/mod.py": (
                "def f(self):\n"
                "    self._set_phase('replaying')\n"
                "    if self.phase == 'done':\n"
                "        return 1\n"
                "    return 0\n"),
        })
        assert findings == []

    def test_phase_chain_without_else_reports_missing(self):
        findings = _findings({
            "repro/checkpoint/recovery.py": _PHASES,
            "repro/cluster/mod.py": (
                "def f(self):\n"
                "    if self.phase == 'loading':\n"
                "        return 1\n"
                "    elif self.phase == 'collecting':\n"
                "        return 2\n"),
        })
        missing = [f for f in findings if "no else" in f.message]
        assert len(missing) == 1 and "replaying" in missing[0].message
