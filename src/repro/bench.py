"""Perf-trajectory harness behind ``repro bench``.

Measures the two engine hot paths (plain schedule/fire, and cancel-heavy
timer churn), a pure-Python calibration loop used to normalize across
machines, and per-figure wall times. ``repro bench``
assembles these into a ``BENCH_<stamp>.json`` snapshot; committing one per
perf-relevant PR builds the repo's performance trajectory, and
``tools/check_bench_regression.py`` gates CI on the normalized engine
numbers.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Dict, List, Optional

from .sim.engine import Engine

#: Events per engine micro-benchmark round (matches benchmarks/test_bench_engine.py).
NUM_EVENTS = 50_000
#: Iterations of the pure-Python calibration spin.
CALIBRATION_OPS = 200_000


def _schedule_and_run() -> Engine:
    """Plain schedule/fire loop: every event fires."""
    engine = Engine()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    for i in range(NUM_EVENTS):
        engine.schedule(i % 977, tick)
    engine.run()
    assert fired == NUM_EVENTS
    return engine


def _cancel_churn() -> Engine:
    """Re-armed timers: cancelled events vastly outnumber live ones (the TCP
    RTO / delayed-ACK / pacing pattern)."""
    engine = Engine()
    fired = 0
    timer = None

    def tick() -> None:
        nonlocal fired, timer
        fired += 1
        if fired < NUM_EVENTS:
            old = timer
            timer = engine.schedule(100, tick)
            engine.schedule(50, noop)
            if old is not None:
                old.cancel()
            engine.schedule(1_000_000, noop).cancel()

    def noop() -> None:
        pass

    timer = engine.schedule(0, tick)
    engine.run()
    assert fired == NUM_EVENTS
    return engine


def _calibration() -> int:
    """Fixed pure-Python workload whose throughput tracks machine speed.

    Normalizing engine events/sec by this makes the committed baseline
    meaningful on other hardware (CI runners, laptops).
    """
    acc = 0
    table = {}
    for i in range(CALIBRATION_OPS):
        key = i & 1023
        table[key] = acc
        acc += table.get(key, 0) & 0xFFFF
    return acc


def _best_seconds(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def engine_metrics(repeat: int = 3) -> Dict[str, float]:
    """Engine micro-benchmark throughputs, raw and calibration-normalized.

    Event counts come from the engine's own ``events_fired`` counter (the
    workloads are deterministic, so one counting run serves all timed runs).
    """
    calibration_s = _best_seconds(_calibration, repeat)
    calibration_ops = CALIBRATION_OPS / calibration_s

    schedule_events = _schedule_and_run().events_fired
    churn_events = _cancel_churn().events_fired

    schedule_s = _best_seconds(_schedule_and_run, repeat)
    churn_s = _best_seconds(_cancel_churn, repeat)

    schedule_eps = schedule_events / schedule_s
    churn_eps = churn_events / churn_s
    return {
        "calibration_ops_per_sec": calibration_ops,
        "schedule_run_seconds": schedule_s,
        "schedule_run_events_fired": float(schedule_events),
        "schedule_run_events_per_sec": schedule_eps,
        "schedule_run_normalized": schedule_eps / calibration_ops,
        "cancel_churn_seconds": churn_s,
        "cancel_churn_events_fired": float(churn_events),
        "cancel_churn_events_per_sec": churn_eps,
        "cancel_churn_normalized": churn_eps / calibration_ops,
    }


def dispatches(row: Dict[str, float]) -> int:
    """Engine dispatches of one timed panel: plain events plus express-lane
    entries. Counting plain events alone would score work the lane merely
    relabels as work saved."""
    return row["events_fired"] + row["express_fired"]


def events_reduction(
    row: Dict[str, float], reference: Dict[str, float]
) -> Optional[float]:
    """Fractional drop in :func:`dispatches` of ``row`` vs ``reference``
    (negative when ``row`` dispatches more), or ``None`` when the reference
    dispatched nothing."""
    base = dispatches(reference)
    if not base:
        return None
    return 1.0 - dispatches(row) / base


def snapshot(
    figures: Dict[str, Dict[str, float]],
    engine: Dict[str, float],
    stamp: Optional[str] = None,
) -> Dict:
    """Assemble one BENCH snapshot document."""
    return {
        "stamp": stamp or time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "host": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "engine": engine,
        "figures": figures,
    }


#: Cumulative one-snapshot-per-line log kept alongside the BENCH_*.json
#: snapshots. Committing it gives the repo a machine-readable perf
#: trajectory without having to glob and parse every historical snapshot.
HISTORY_FILENAME = "BENCH_HISTORY.jsonl"


def write_snapshot(
    doc: Dict, path: Optional[str] = None, history_path: Optional[str] = None
) -> str:
    """Write ``doc`` to ``path`` (default ``BENCH_<stamp>.json`` in cwd) and
    append it as a single JSON line to the cumulative history log."""
    if path is None:
        path = f"BENCH_{doc['stamp']}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if history_path is None:
        history_path = HISTORY_FILENAME
    with open(history_path, "a") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return path


def load_baseline(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def compare_to_baseline(
    current: Dict[str, float], baseline: Dict[str, float], tolerance: float
) -> List[str]:
    """Return regression messages for normalized metrics below baseline.

    A metric regresses when its calibration-normalized throughput drops more
    than ``tolerance`` (fraction) below the committed baseline value.
    """
    failures = []
    for key in ("schedule_run_normalized", "cancel_churn_normalized"):
        base = baseline.get(key)
        if not base:
            continue
        now = current[key]
        if now < base * (1.0 - tolerance):
            failures.append(
                f"{key}: {now:.3f} is {1 - now / base:.1%} below baseline "
                f"{base:.3f} (tolerance {tolerance:.0%})"
            )
    return failures


def compare_figures_to_baseline(
    figures: Dict[str, Dict[str, float]],
    baseline_figures: Dict[str, Dict[str, float]],
    tolerance: float,
) -> List[str]:
    """Return regression messages for the per-figure gate.

    ``figures`` maps panel name to measured ``normalized_cost`` (wall time ×
    calibration throughput — machine-independent work units) with the
    express lane on, and ``normalized_cost_no_express`` with it off. Both
    ceilings get ``tolerance`` headroom.
    """
    failures = []
    for name, floor in baseline_figures.items():
        row = figures.get(name)
        if row is None:
            failures.append(f"{name}: gated figure was not measured")
            continue
        for key in ("normalized_cost", "normalized_cost_no_express"):
            ceiling = floor.get(f"max_{key}")
            if not ceiling:
                continue
            now = row[key]
            if now > ceiling * (1.0 + tolerance):
                failures.append(
                    f"{name}: {key} {now:,.0f} is {now / ceiling - 1:.1%} above "
                    f"baseline {ceiling:,.0f} (tolerance {tolerance:.0%})"
                )
    return failures
