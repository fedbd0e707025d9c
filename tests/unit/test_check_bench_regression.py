"""Unit tests for the CI perf gate (``tools/check_bench_regression.py``).

The gate itself re-measures figures cold, which is far too slow for unit
tests — so these tests stub the measurement layer with synthetic numbers
and exercise the decision logic: a healthy snapshot passes, each ceiling
trips individually, the Python-call ceiling is exact, ``--update`` rewrites
the baseline without being able to raise the hard-coded ceilings, and
calibration normalization makes the verdict machine-independent.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL_PATH = Path(__file__).resolve().parents[2] / "tools" / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression", _TOOL_PATH)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


ENGINE_METRICS = {
    "calibration_ops_per_sec": 10_000_000.0,
    "schedule_run_events_per_sec": 4_000_000.0,
    "schedule_run_normalized": 0.40,
    "cancel_churn_events_per_sec": 3_000_000.0,
    "cancel_churn_normalized": 0.30,
}

FIGURE_ROW = {
    "normalized_cost": 6_000_000.0,
    "normalized_cost_no_express": 6_500_000.0,
    "dispatches": 20_000,
    "dispatches_no_express": 19_900,
    "py_calls": tool.MAX_PY_CALLS["fig3a"] - 10_000,
    "trace_overhead": 0.10,
}

BASELINE = {
    "schedule_run_normalized": 0.40,
    "cancel_churn_normalized": 0.30,
    "figures": {
        "fig3a": {
            "max_normalized_cost": 6_000_000.0,
            "max_normalized_cost_no_express": 6_500_000.0,
        }
    },
}


def _run_gate(tmp_path, monkeypatch, capsys, *, engine=None, row=None,
              baseline=BASELINE, update=False, figures="fig3a"):
    """Run ``main()`` with stubbed measurements; return (exit code, stderr)."""
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    engine = dict(ENGINE_METRICS if engine is None else engine)
    row = dict(FIGURE_ROW if row is None else row)

    monkeypatch.setattr(tool.bench, "engine_metrics", lambda repeat: engine)
    monkeypatch.setattr(
        tool, "_figure_metrics", lambda names, repeat, cal: {"fig3a": row}
    )
    argv = ["check_bench_regression.py", "--baseline", str(baseline_path),
            "--figures", figures]
    if update:
        argv.append("--update")
    monkeypatch.setattr(tool.sys, "argv", argv)
    code = tool.main()
    return code, capsys.readouterr().err


def test_healthy_snapshot_passes(tmp_path, monkeypatch, capsys):
    code, err = _run_gate(tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "REGRESSION" not in err


def test_engine_throughput_floor_trips(tmp_path, monkeypatch, capsys):
    engine = dict(ENGINE_METRICS)
    engine["schedule_run_normalized"] = 0.40 * 0.5  # far below 25% tolerance
    code, err = _run_gate(tmp_path, monkeypatch, capsys, engine=engine)
    assert code == 1
    assert "schedule_run_normalized" in err


@pytest.mark.parametrize("key", ["normalized_cost", "normalized_cost_no_express"])
def test_each_cost_ceiling_trips(tmp_path, monkeypatch, capsys, key):
    row = dict(FIGURE_ROW)
    row[key] = row[key] * 2.0  # well past the 25% headroom
    code, err = _run_gate(tmp_path, monkeypatch, capsys, row=row)
    assert code == 1
    assert key in err


def test_cost_within_tolerance_headroom_passes(tmp_path, monkeypatch, capsys):
    row = dict(FIGURE_ROW)
    row["normalized_cost"] = BASELINE["figures"]["fig3a"][
        "max_normalized_cost"
    ] * 1.20  # above baseline but inside the 25% tolerance
    code, _ = _run_gate(tmp_path, monkeypatch, capsys, row=row)
    assert code == 0


def test_py_calls_ceiling_is_exact(tmp_path, monkeypatch, capsys):
    row = dict(FIGURE_ROW)
    row["py_calls"] = tool.MAX_PY_CALLS["fig3a"] + 1
    code, err = _run_gate(tmp_path, monkeypatch, capsys, row=row)
    assert code == 1
    assert "Python calls" in err
    # Exactly at the ceiling is acceptable: no tolerance in either direction.
    row["py_calls"] = tool.MAX_PY_CALLS["fig3a"]
    code, _ = _run_gate(tmp_path, monkeypatch, capsys, row=row)
    assert code == 0


def test_update_cannot_raise_py_calls_ceiling(tmp_path, monkeypatch, capsys):
    ceilings = dict(tool.MAX_PY_CALLS)
    row = dict(FIGURE_ROW)
    row["py_calls"] = ceilings["fig3a"] + 50_000
    code, _ = _run_gate(tmp_path, monkeypatch, capsys, row=row, update=True)
    assert code == 0
    doc = json.loads((tmp_path / "baseline.json").read_text())
    # The ceiling is the tool's constant: --update neither changes it nor
    # writes a call count into the baseline file for a later run to trust.
    assert tool.MAX_PY_CALLS == ceilings
    assert "py_calls" not in json.dumps(doc)
    code, err = _run_gate(tmp_path, monkeypatch, capsys, row=row, baseline=doc)
    assert code == 1
    assert "Python calls" in err


def test_trace_overhead_ceiling_trips(tmp_path, monkeypatch, capsys):
    row = dict(FIGURE_ROW)
    row["trace_overhead"] = tool.MAX_TRACE_OVERHEAD + 0.05
    code, err = _run_gate(tmp_path, monkeypatch, capsys, row=row)
    assert code == 1
    assert "tracing" in err


def test_missing_gated_figure_fails(tmp_path, monkeypatch, capsys):
    # fig9a is gated by the baseline and requested, but the measurement
    # layer (stubbed here) never produced a row for it.
    baseline = json.loads(json.dumps(BASELINE))
    baseline["figures"]["fig9a"] = baseline["figures"]["fig3a"]
    code, err = _run_gate(
        tmp_path, monkeypatch, capsys, baseline=baseline,
        figures="fig3a,fig9a",
    )
    assert code == 1
    assert "not measured" in err


def test_update_rewrites_baseline_with_hard_floor(tmp_path, monkeypatch, capsys):
    code, _ = _run_gate(tmp_path, monkeypatch, capsys, update=True)
    assert code == 0
    doc = json.loads((tmp_path / "baseline.json").read_text())
    fig = doc["figures"]["fig3a"]
    assert fig["max_normalized_cost"] == FIGURE_ROW["normalized_cost"]
    assert (
        fig["max_normalized_cost_no_express"]
        == FIGURE_ROW["normalized_cost_no_express"]
    )
    assert set(fig) == {"max_normalized_cost", "max_normalized_cost_no_express"}
    assert doc["schedule_run_normalized"] == ENGINE_METRICS["schedule_run_normalized"]
    # A gate run against the freshly written baseline passes.
    code, err = _run_gate(tmp_path, monkeypatch, capsys, baseline=doc)
    assert code == 0
    assert "REGRESSION" not in err


def test_calibration_normalization_is_machine_independent(monkeypatch):
    """A machine half as fast (walls x2, calibration /2) must produce the
    same normalized figure costs, so the committed ceilings transfer."""
    walls = {
        (True, False): 0.5,
        (False, False): 0.6,
        (True, True): 0.55,
    }

    def fake_time_figure(name, express, repeat, trace=False):
        return walls[(express, trace)] * scale, 1_000

    monkeypatch.setattr(tool, "_time_figure", fake_time_figure)
    monkeypatch.setattr(tool, "_py_calls", lambda name: 3_000_000)
    scale = 1.0
    fast = tool._figure_metrics(["fig3a"], 1, 10_000_000.0)["fig3a"]
    scale = 2.0
    slow = tool._figure_metrics(["fig3a"], 1, 5_000_000.0)["fig3a"]
    for key in (
        "normalized_cost",
        "normalized_cost_no_express",
        "trace_overhead",
        "dispatches",
        "py_calls",
    ):
        assert fast[key] == pytest.approx(slow[key])
