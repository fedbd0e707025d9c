"""The benchmark's exact measures repeat exactly.

Per-layer Python calls (cProfile), span call counts, engine dispatch counts
and model outputs are functions of the simulated configs alone, so two
measurements of the same workload and seed must agree to the last call.

    python3 -m pytest perfbench/test_exact.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from layers import capture_runs, counters, py_calls  # noqa: E402
from workloads import REFERENCE_SEED, build_configs  # noqa: E402

from repro.core.runner import RunnerStats, run_many  # noqa: E402

PACKAGE_ROOT = os.path.join(os.path.dirname(HERE), "src", "repro")


def _measure(workload):
    configs = build_configs(workload, REFERENCE_SEED)
    recorder = spans.SpanRecorder()
    stats = RunnerStats()
    with capture_runs() as runs, spans.install(recorder) as missing:
        run_many(configs, jobs=1, cache=None, stats=stats)
    assert missing == []
    calls, _ = recorder.layer_totals()
    counts = counters(runs)
    assert counts["engine.dispatches"] == stats.events_fired + stats.express_fired
    python_calls = py_calls(lambda: run_many(configs, jobs=1, cache=None), PACKAGE_ROOT)
    return calls, counts, python_calls


def test_counts_repeat_exactly():
    assert _measure("lossy") == _measure("lossy")


def test_trace_layer_runs_only_when_traced():
    calls, _, python_calls = _measure("bulk")
    traced_calls, _, traced_python_calls = _measure("bulk_traced")
    assert calls.get("trace", 0) == 0 and python_calls["trace"] == 0
    assert traced_calls["trace"] > 0 and traced_python_calls["trace"] > 0
