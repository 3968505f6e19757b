"""Unit tests for the exception-safety (escape) analyzer."""

from __future__ import annotations

from repro.analysis.escapes import analyze_escapes
from repro.analysis.findings import load_source_table


def _findings(source: str, path: str = "repro/server/mod.py"):
    return analyze_escapes(load_source_table({path: source}))


class TestCallbackFanOut:
    def test_unprotected_fan_out_loop_is_flagged(self):
        findings = _findings(
            "def notify(targets):\n"
            "    for method in targets:\n"
            "        method()\n")
        assert len(findings) == 1
        assert "fan-out loop" in findings[0].message
        assert findings[0].rule == "exception-safety"

    def test_broad_catch_protects_fan_out(self):
        findings = _findings(
            "def notify(targets):\n"
            "    for method in targets:\n"
            "        try:\n"
            "            method()\n"
            "        except Exception:\n"
            "            pass\n")
        assert findings == []

    def test_named_callback_attribute_is_flagged(self):
        findings = _findings(
            "class Pool:\n"
            "    def drain(self, done, total):\n"
            "        self.progress(done, total)\n")
        assert len(findings) == 1
        assert ".progress()" in findings[0].message

    def test_narrow_catch_does_not_protect_callback(self):
        # User code can raise anything; except ValueError is not enough.
        findings = _findings(
            "class Pool:\n"
            "    def drain(self, done, total):\n"
            "        try:\n"
            "            self.progress(done, total)\n"
            "        except ValueError:\n"
            "            pass\n")
        assert len(findings) == 1

    def test_bare_except_counts_as_broad(self):
        findings = _findings(
            "class Pool:\n"
            "    def drain(self, done, total):\n"
            "        try:\n"
            "            self.progress(done, total)\n"
            "        except:\n"
            "            pass\n")
        assert findings == []


class TestDecoders:
    def test_unprotected_pickle_loads_is_flagged(self):
        findings = _findings(
            "import pickle\n"
            "def decode(blob):\n"
            "    return pickle.loads(blob)\n")
        assert len(findings) == 1
        assert "pickle.loads" in findings[0].message

    def test_narrow_catch_protects_decoder(self):
        # Decoders raise a known family; any try with handlers counts.
        findings = _findings(
            "import json\n"
            "def decode(blob):\n"
            "    try:\n"
            "        return json.loads(blob)\n"
            "    except json.JSONDecodeError:\n"
            "        return None\n")
        assert findings == []


class TestScopeAndNesting:
    def test_out_of_scope_module_is_ignored(self):
        findings = _findings(
            "def notify(targets):\n"
            "    for method in targets:\n"
            "        method()\n",
            path="repro/perf/mod.py")
        assert findings == []

    def test_nested_def_gets_its_own_pass(self):
        # The inner function runs later on the caller's stack; the
        # outer try around its *definition* protects nothing.
        findings = _findings(
            "def outer(targets):\n"
            "    try:\n"
            "        def inner():\n"
            "            for method in targets:\n"
            "                method()\n"
            "    except Exception:\n"
            "        pass\n"
            "    return inner\n")
        assert len(findings) == 1
        assert "fan-out loop" in findings[0].message

    def test_nested_def_in_statement_position_is_reported_once(self):
        # A closure factory (the observers registry's dispatcher): the
        # finding belongs to the inner function, not to both.
        findings = _findings(
            "def make_dispatch(name):\n"
            "    def dispatch(self):\n"
            "        for method in self.targets[name]:\n"
            "            method()\n"
            "    return dispatch\n")
        assert [f.message.split(":")[0] for f in findings] == [
            "make_dispatch.dispatch"]

    def test_handler_body_is_not_protected_by_its_own_try(self):
        findings = _findings(
            "class Pool:\n"
            "    def drain(self):\n"
            "        try:\n"
            "            pass\n"
            "        except Exception:\n"
            "            self.progress(0, 0)\n")
        assert len(findings) == 1

    def test_inline_allow_comment_suppresses_via_module(self):
        # The allow machinery lives on Module.allowed_rules; exercised
        # end to end in the runner tests, here just the lookup.
        table = load_source_table({
            "repro/server/mod.py": (
                "def notify(targets):\n"
                "    for method in targets:\n"
                "        method()  # analyze: allow(exception-safety)\n")})
        module = next(iter(table))
        assert "exception-safety" in module.allowed_rules(3)
