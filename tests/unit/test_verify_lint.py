"""Unit tests for the per-statement determinism rules.

These are the cases of the former ``verify/lint.py``, run against the
one engine that now owns the rules (:mod:`repro.analysis.purity`).  The
default path is deliberately *outside* the deterministic core: the
wall-clock / unseeded-random / unordered-iteration rules are tree-wide.
"""

from repro.analysis.findings import default_root, load_source_table
from repro.analysis.purity import (
    HOST_SIDE,
    PATH_TABLE,
    TREE_WIDE_RULES,
    analyze_purity,
)
from repro.analysis.runner import run_analysis


def lint_source(path, source):
    findings = analyze_purity(load_source_table({path: source}))
    return sorted(findings, key=lambda finding: finding.line)


def rules(source, path="repro/pkg/mod.py"):
    """The effect class of each finding, in line order."""
    found = []
    for finding in lint_source(path, source):
        assert finding.rule == "purity"
        found.append(next(rule for rule in TREE_WIDE_RULES
                          if f": {rule} effect" in finding.message))
    return found


class TestWallClock:
    def test_attribute_call_flagged(self):
        assert rules("import time\nt = time.time()\n") == ["wall-clock"]

    def test_perf_counter_flagged(self):
        assert rules("import time\nt = time.perf_counter()\n") == ["wall-clock"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert rules(src) == ["wall-clock"]

    def test_from_import_flagged(self):
        src = "from time import monotonic\nt = monotonic()\n"
        assert rules(src) == ["wall-clock"]

    def test_from_import_alias_flagged(self):
        src = "from time import time as wall\nt = wall()\n"
        assert rules(src) == ["wall-clock"]

    def test_time_sleep_is_fine(self):
        assert rules("import time\ntime.sleep(1)\n") == []

    def test_exempt_path(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source("repro/verify/inline.py", src) == []

    def test_every_call_site_is_reported(self):
        src = ("import time\n"
               "def f():\n"
               "    return time.time() - time.time()\n"
               "class C:\n"
               "    stamp = time.monotonic()\n")
        assert rules(src) == ["wall-clock"] * 3

    def test_function_local_import_is_tracked(self):
        src = ("def f():\n"
               "    from time import monotonic\n"
               "    return monotonic()\n")
        assert rules(src) == ["wall-clock"]


class TestUnseededRandom:
    def test_module_level_call_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules(src) == ["unseeded-random"]

    def test_choice_flagged(self):
        src = "import random\nx = random.choice([1, 2])\n"
        assert rules(src) == ["unseeded-random"]

    def test_seeded_generator_allowed(self):
        src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert rules(src) == []

    def test_from_import_flagged(self):
        src = "from random import shuffle\nshuffle([1, 2])\n"
        assert rules(src) == ["unseeded-random"]

    def test_exempt_path(self):
        src = "import random\nx = random.getrandbits(8)\n"
        assert lint_source("repro/sim/rng.py", src) == []


class TestUnorderedIteration:
    def test_for_over_set_call_flagged(self):
        src = "for x in set(items):\n    use(x)\n"
        assert rules(src) == ["unordered-iteration"]

    def test_for_over_set_literal_flagged(self):
        src = "for x in {1, 2, 3}:\n    use(x)\n"
        assert rules(src) == ["unordered-iteration"]

    def test_set_binop_flagged(self):
        src = "for x in set(a) | set(b):\n    use(x)\n"
        assert rules(src) == ["unordered-iteration"]

    def test_known_set_attr_flagged(self):
        src = "for tid in obj.local_readers:\n    use(tid)\n"
        assert rules(src) == ["unordered-iteration"]

    def test_comprehension_flagged(self):
        src = "out = [f(x) for x in frozenset(items)]\n"
        assert rules(src) == ["unordered-iteration"]

    def test_sorted_wrapper_suppresses(self):
        src = "for x in sorted(set(items)):\n    use(x)\n"
        assert rules(src) == []

    def test_list_iteration_is_fine(self):
        src = "for x in [1, 2, 3]:\n    use(x)\n"
        assert rules(src) == []


class TestRuleExemptions:
    def test_exemptions_are_per_rule(self):
        # A wall-clock-exempt path is NOT exempt from the other rules.
        path = "repro/parallel/service.py"
        assert (path, HOST_SIDE) in [row[:2] for row in PATH_TABLE]
        assert lint_source(path, "import time\nt = time.time()\n") == []
        assert rules("import random\nx = random.random()\n",
                     path) == ["unseeded-random"]

    def test_suffix_match_requires_full_segment_tail(self):
        # "verify/inline.py" must match as a path suffix, so a module
        # that merely *contains* the string elsewhere is not exempt.
        assert rules("import time\nt = time.time()\n",
                     "repro/verify/inline.py.bak/mod.py") == ["wall-clock"]

    def test_backslash_paths_are_normalized(self):
        findings = lint_source("repro\\verify\\inline.py",
                               "import time\nt = time.time()\n")
        assert findings == []

    def test_every_exempt_suffix_names_a_real_module(self):
        # Exemptions for deleted modules linger silently; keep the
        # table honest against the installed package.
        root = default_root().parent
        for path, _, _, reason in PATH_TABLE:
            assert (root / path).exists(), (
                f"PATH_TABLE entry {path!r} matches no module under {root}")
            assert reason, f"PATH_TABLE entry {path!r} states no reason"


class TestSyntaxRule:
    def test_unparsable_source_reported(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        report = run_analysis(root=tmp_path, analyzers=["purity"],
                              use_default_baseline=False)
        assert [f.rule for f in report.new] == ["syntax"]


class TestRealTree:
    def test_package_is_clean(self):
        report = run_analysis(analyzers=["purity"],
                              use_default_baseline=False)
        assert report.findings == []
