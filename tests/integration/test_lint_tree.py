"""repro lint against the real tree: clean baseline, and regression traps.

The second half mutates real source files (in memory, never on disk) into
the shapes of bugs each checker exists to prevent, and asserts the mutation
is caught as a NEW finding — i.e. one the committed baseline does not
absorb. This is the proof that the gate would have fired on the historical
bug, not merely that the checker runs.
"""

import json
from pathlib import Path

from repro.analysis.baseline import load_baseline
from repro.analysis.lint import run_lint
from repro.analysis.project import Project

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def load_tree_sources() -> dict:
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def run_on(sources: dict):
    return run_lint(Project.from_sources(sources))


class TestCleanTree:
    def test_committed_baseline_keeps_tree_green(self):
        report = run_lint()
        assert report.syntax_errors == []
        assert [f.render() for f in report.baseline.new] == []
        assert report.baseline.stale == []
        assert report.exit_code == 0

    def test_baseline_entries_all_carry_reasons(self):
        for entry in load_baseline():
            assert entry.reason, f"baseline entry without a reason: {entry}"

    def test_baseline_is_express_fallbacks_only(self):
        # The tree carries no accepted debt: a new finding is fixed, or
        # suppressed at its line with a pragma and a reason.
        assert load_baseline() == []


class TestHistoricalBugShapes:
    def test_deleting_express_from_cache_key_excluded_is_caught(self):
        sources = load_tree_sources()
        target = 'CACHE_KEY_EXCLUDED = frozenset({"express"})'
        assert target in sources["config.py"]
        sources["config.py"] = sources["config.py"].replace(
            target, "CACHE_KEY_EXCLUDED = frozenset()"
        )
        report = run_on(sources)
        new = [f for f in report.baseline.new if f.rule == "key-marked-not-declared"]
        assert len(new) == 1
        assert "express" in new[0].message
        assert report.exit_code == 1

    def test_wallclock_in_engine_is_caught(self):
        sources = load_tree_sources()
        sources["sim/engine.py"] += (
            "\n\nimport time\n\n"
            "def _drift_stamp():\n"
            "    return time.time()\n"
        )
        report = run_on(sources)
        new = [
            f
            for f in report.baseline.new
            if f.rule == "det-wallclock" and f.path == "src/repro/sim/engine.py"
        ]
        assert [f.symbol for f in new] == ["_drift_stamp"]
        assert report.exit_code == 1

    def test_dropped_slot_assignment_in_frame_fast_path_is_caught(self):
        sources = load_tree_sources()
        target = "            frame.trace_ns = None\n"
        assert target in sources["kernel/tcp/endpoint.py"]
        sources["kernel/tcp/endpoint.py"] = sources["kernel/tcp/endpoint.py"].replace(
            target, "", 1
        )
        report = run_on(sources)
        new = [
            f
            for f in report.baseline.new
            if f.rule == "slots-incomplete-new"
            and f.path == "src/repro/kernel/tcp/endpoint.py"
        ]
        assert len(new) == 1
        assert "trace_ns" in new[0].message

    def test_unsorted_glob_in_cache_is_caught(self):
        sources = load_tree_sources()
        target = 'candidates = sorted(directory.glob("*.tmp.*"))'
        assert target in sources["core/cache.py"]
        sources["core/cache.py"] = sources["core/cache.py"].replace(
            target, 'candidates = list(directory.glob("*.tmp.*"))'
        )
        report = run_on(sources)
        new = [f for f in report.baseline.new if f.rule == "det-fs-order"]
        assert [f.path for f in new] == ["src/repro/core/cache.py"]


class TestCliGate:
    def test_lint_subcommand_exit_codes(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out

        # A baseline entry that matches no finding is stale: the ratchet
        # must turn the gate red.
        stale = tmp_path / "stale-baseline.json"
        stale.write_text(json.dumps({"version": 1, "findings": [{
            "rule": "det-wallclock", "path": "src/repro/sim/engine.py",
            "symbol": "_gone", "message": "fixed long ago",
            "reason": "kept past its fix",
        }]}))
        assert main(["lint", "--baseline", str(stale)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline" in out
