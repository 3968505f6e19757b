"""Unit tests for the simulation-purity effect analyzer."""

from __future__ import annotations

from repro.analysis.findings import load_source_table
from repro.analysis.purity import analyze_purity


def _findings(sources: dict):
    return analyze_purity(load_source_table(sources))


class TestDirectEffects:
    def test_wall_clock_in_pure_zone(self):
        findings = _findings({
            "repro/sim/mod.py": (
                "import time\n"
                "def now():\n"
                "    return time.monotonic()\n"),
        })
        assert any("wall-clock" in f.message and f.line == 3
                   for f in findings)

    def test_unseeded_random_flagged_but_allowed_names_are_not(self):
        findings = _findings({
            "repro/memory/mod.py": (
                "import random\n"
                "def bad():\n"
                "    return random.random()\n"
                "def fine(rng):\n"
                "    return random.Random(7).random()\n"),
        })
        random_findings = [f for f in findings
                           if "unseeded-random" in f.message]
        assert len(random_findings) == 1 and random_findings[0].line == 3

    def test_filesystem_and_threading_primitives(self):
        findings = _findings({
            "repro/checkpoint/mod.py": (
                "import os\n"
                "import threading\n"
                "def a():\n"
                "    os.listdir('.')\n"
                "def b():\n"
                "    threading.Thread()\n"
                "def c(path):\n"
                "    open(path)\n"),
        })
        messages = " | ".join(f.message for f in findings)
        assert "filesystem" in messages and "threading" in messages
        assert "open()" in messages

    def test_import_time_effect_at_module_level(self):
        findings = _findings({
            "repro/net/mod.py": (
                "import time\n"
                "STARTED = time.time()\n"),
        })
        assert any("import time" in f.message or "import" in f.message
                   for f in findings if "wall-clock" in f.message)

    def test_zone_rules_stop_at_the_core(self):
        # Filesystem and threading are normal on the host side.
        findings = _findings({
            "repro/tools/mod.py": (
                "import os\n"
                "import threading\n"
                "def scan():\n"
                "    threading.Thread()\n"
                "    return os.listdir('.')\n"),
        })
        assert findings == []

    def test_tree_wide_rules_do_not(self):
        # ...but the host clock is off limits everywhere the path table
        # does not list as host-side.
        source = ("import time\n"
                  "def now():\n"
                  "    return time.monotonic()\n")
        assert _findings({"repro/server/metrics.py": source}) == []
        findings = _findings({"repro/tools/mod.py": source})
        assert [(f.line, "wall-clock" in f.message) for f in findings] == [
            (3, True)]

    def test_from_import_alias_is_tracked(self):
        findings = _findings({
            "repro/sim/mod.py": (
                "from time import monotonic as _clock\n"
                "def now():\n"
                "    return _clock()\n"),
        })
        assert any("wall-clock" in f.message for f in findings)


class TestInterprocedural:
    def test_one_hop_boundary_finding_carries_chain(self):
        findings = _findings({
            "repro/clockx/clock.py": (
                "import time\n"
                "def read():\n"
                "    return time.monotonic()\n"),
            "repro/sim/mod.py": (
                "from repro.clockx import clock\n"
                "def tick():\n"
                "    return clock.read()\n"),
        })
        boundary = [f for f in findings if f.path == "repro/sim/mod.py"]
        assert len(boundary) == 1
        assert "leaves the deterministic-simulation zone" in \
            boundary[0].message
        assert any("time.monotonic()" in step
                   for step in boundary[0].witness)

    def test_two_hop_chain(self):
        findings = _findings({
            "repro/clockx/clock.py": (
                "import time\n"
                "def read():\n"
                "    return time.monotonic()\n"),
            "repro/clockx/wrap.py": (
                "from repro.clockx import clock\n"
                "def stamp():\n"
                "    return clock.read()\n"),
            "repro/sim/mod.py": (
                "from repro.clockx import wrap\n"
                "def tick():\n"
                "    return wrap.stamp()\n"),
        })
        boundary = [f for f in findings if f.path == "repro/sim/mod.py"]
        assert len(boundary) == 1
        # The witness walks stamp -> read -> time.monotonic().
        assert any("calls" in step for step in boundary[0].witness)
        assert any("time.monotonic()" in step
                   for step in boundary[0].witness)

    def test_trusted_module_does_not_propagate(self):
        findings = _findings({
            "repro/storage/backend.py": (
                "import os\n"
                "def persist():\n"
                "    os.fsync(0)\n"),
            "repro/checkpoint/mod.py": (
                "from repro.storage import backend\n"
                "def save():\n"
                "    backend.persist()\n"),
        })
        assert findings == []

    def test_pure_helper_chain_is_clean(self):
        findings = _findings({
            "repro/util/math.py": (
                "def square(x):\n"
                "    return x * x\n"),
            "repro/sim/mod.py": (
                "from repro.util import math\n"
                "def f(x):\n"
                "    return math.square(x)\n"),
        })
        assert findings == []


class TestUnorderedIteration:
    def test_set_iteration_rides_along(self):
        findings = _findings({
            "repro/sim/mod.py": (
                "def f(items):\n"
                "    for x in set(items):\n"
                "        print(x)\n"),
        })
        assert any("unordered-iteration" in f.message for f in findings)
