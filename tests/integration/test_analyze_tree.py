"""Integration: the analyzer suite over the real tree, and mutation
tests proving it still bites when a determinism bug is introduced."""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis.findings import default_root
from repro.analysis.runner import run_analysis


class TestRealTree:
    def test_tree_is_clean_modulo_checked_in_baseline(self):
        report = run_analysis()
        assert report.new == [], "\n".join(
            finding.render() for finding in report.new)
        assert report.stale_keys == [], (
            "baseline entries no longer matched by any finding: "
            + ", ".join(report.stale_keys))

    def test_all_three_analyzers_ran(self):
        report = run_analysis()
        assert set(report.analyzers) == {"locks", "purity", "escapes"}
        assert report.modules > 50


def _copy_tree(tmp_path: Path) -> Path:
    target = tmp_path / "repro"
    shutil.copytree(default_root(), target)
    return target


class TestMutations:
    def test_wall_clock_inserted_into_kernel_is_flagged(self, tmp_path):
        root = _copy_tree(tmp_path)
        kernel = root / "sim" / "kernel.py"
        kernel.write_text(kernel.read_text()
                          + "\n\nimport time\n"
                            "def _host_now():\n"
                            "    return time.time()\n")
        report = run_analysis(root=root, use_default_baseline=False)
        hits = [f for f in report.new
                if f.rule == "purity" and f.path == "repro/sim/kernel.py"
                and "wall-clock" in f.message]
        assert hits, "direct wall-clock in sim/kernel.py went undetected"

    def test_interprocedural_chain_through_helper_module(self, tmp_path):
        # The clock read lives OUTSIDE the pure zone; the kernel only
        # reaches it through a call.  No per-statement rule can see
        # this -- the effect system must walk the chain.
        root = _copy_tree(tmp_path)
        (root / "hostclock.py").write_text(
            "import time\n"
            "def read():\n"
            "    return time.time()\n")
        kernel = root / "sim" / "kernel.py"
        kernel.write_text(kernel.read_text()
                          + "\n\nfrom repro import hostclock\n"
                            "def _stamp():\n"
                            "    return hostclock.read()\n")
        report = run_analysis(root=root, use_default_baseline=False)
        hits = [f for f in report.new
                if f.rule == "purity" and f.path == "repro/sim/kernel.py"
                and "leaves the deterministic-simulation zone" in f.message]
        assert len(hits) == 1
        # The witness names both the chain step and the primitive.
        witness = " | ".join(hits[0].witness)
        assert "hostclock.read" in witness and "time.time()" in witness

    def test_unseeded_random_in_memory_layer_is_flagged(self, tmp_path):
        root = _copy_tree(tmp_path)
        target = root / "memory" / "coherence.py"
        target.write_text(target.read_text()
                          + "\n\nimport random\n"
                            "def _jitter():\n"
                            "    return random.random()\n")
        report = run_analysis(root=root, use_default_baseline=False)
        assert any(f.rule == "purity" and "unseeded-random" in f.message
                   and f.path == "repro/memory/coherence.py"
                   for f in report.new)

    def test_tree_wide_rules_reach_modules_outside_the_pure_zones(
            self, tmp_path):
        # cluster/ and threads/ are in no pure zone; the wall-clock and
        # unseeded-random rules must bite there all the same, or merging
        # the per-statement lint into this engine narrowed coverage.
        root = _copy_tree(tmp_path)
        system = root / "cluster" / "system.py"
        system.write_text(system.read_text()
                          + "\n\nimport time\n"
                            "def _host_now():\n"
                            "    return time.time()\n")
        scheduler = root / "threads" / "scheduler.py"
        scheduler.write_text(scheduler.read_text()
                             + "\n\nimport random\n"
                               "def _coin():\n"
                               "    return random.random()\n")
        report = run_analysis(root=root, use_default_baseline=False)
        flagged = {(f.path, rule) for f in report.new if f.rule == "purity"
                   for rule in ("wall-clock", "unseeded-random")
                   if f": {rule} effect" in f.message}
        assert flagged == {("repro/cluster/system.py", "wall-clock"),
                           ("repro/threads/scheduler.py", "unseeded-random")}
