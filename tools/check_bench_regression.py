#!/usr/bin/env python
"""CI perf gate: engine micro-benchmarks and figure costs vs the baseline.

Two gates against ``benchmarks/baseline_engine.json``:

* **Engine** — the event-queue micro-benchmarks (same workloads as
  ``benchmarks/test_bench_engine.py`` and ``repro bench``), compared by
  *calibration-normalized* throughput. Fails when either path drops more
  than the tolerance (default 25%) below baseline.
* **Figures** — each gated panel is regenerated cold with the express lane
  on (the default) and with ``--no-express``. Gated quantities: normalized
  cost (wall time × calibration throughput, a machine-independent work
  unit) for both modes, with tolerance headroom, and the panel's total
  Python calls under cProfile, capped exactly by ``MAX_PY_CALLS`` (a
  deterministic count of the work done, not a timing). Each panel is also
  re-run with per-stage latency tracing on; the traced/untraced wall-time
  ratio must stay under ``MAX_TRACE_OVERHEAD``.

Usage::

    PYTHONPATH=src python tools/check_bench_regression.py
    PYTHONPATH=src python tools/check_bench_regression.py --figures none
    PYTHONPATH=src python tools/check_bench_regression.py --update  # re-baseline
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import bench  # noqa: E402

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline_engine.json"

#: Exact ceiling on the total Python calls (every function cProfile sees:
#: simulator, builtins, standard library) of one cold, default-mode
#: regeneration of each panel, measured by :func:`_py_calls`. The count is
#: deterministic for a given CPython minor version; these are pinned for
#: CPython 3.11, which CI uses. Kept in the tool (not the baseline file) so
#: ``--update`` can never raise them: lower them by hand with each win.
MAX_PY_CALLS = {
    "fig3a": 3_041_770,
    "fig9a": 2_136_545,
}

#: Allowed fractional wall-time increase of a traced run over the same
#: panel with tracing off. The tracing-off cost itself is gated by the
#: baseline's ``max_normalized_cost`` ceiling (tracing off is the default
#: everywhere, including the golden-digest gate); this ratio — measured on
#: the same machine in the same process, so it needs no baseline entry —
#: bounds what turning tracing ON may cost. Kept in the tool so
#: ``--update`` can never weaken it.
MAX_TRACE_OVERHEAD = 0.50


def _time_figure(name: str, express: bool, repeat: int, trace: bool = False):
    """Best-of-N cold wall time and engine dispatches (plain events plus
    express-lane entries) for one panel."""
    from repro.cli import _run_panel
    from repro.figures import base as figures_base

    best = float("inf")
    for _ in range(repeat):
        figures_base.STATS.reset()
        start = time.perf_counter()
        _run_panel(name, jobs=1, cache=None, audit=False, express=express,
                   trace=trace)
        best = min(best, time.perf_counter() - start)
    stats = figures_base.STATS
    return best, stats.events_fired + stats.express_fired


def _py_calls(name: str) -> int:
    """Total Python calls of one cold default-mode regeneration of ``name``.

    A first, unprofiled run warms imports and module-level memos, so the
    profiled run counts the same calls whatever ran before it in this
    process; ``gc.collect()`` first keeps earlier runs' reference cycles
    from being collected (and counted) mid-profile.
    """
    from repro.cli import _run_panel

    _run_panel(name, jobs=1, cache=None, audit=False)
    gc.collect()
    profiler = cProfile.Profile()
    profiler.runcall(_run_panel, name, jobs=1, cache=None, audit=False)
    return sum(entry[1] for entry in pstats.Stats(profiler).stats.values())


def _figure_metrics(names, repeat: int, calibration_ops: float):
    rows = {}
    for name in names:
        print(f"figure gate: timing {name} (default / --no-express / traced)...")
        wall, dispatches = _time_figure(name, True, repeat)
        wall_nx, dispatches_nx = _time_figure(name, False, repeat)
        wall_traced, _ = _time_figure(name, True, repeat, trace=True)
        rows[name] = {
            "normalized_cost": wall * calibration_ops,
            "normalized_cost_no_express": wall_nx * calibration_ops,
            "dispatches": dispatches,
            "dispatches_no_express": dispatches_nx,
            "py_calls": _py_calls(name),
            "trace_overhead": wall_traced / wall - 1.0 if wall else 0.0,
        }
        print(
            f"  {name}: {wall:.3f}s / {wall_nx:.3f}s wall, "
            f"{dispatches:,} / {dispatches_nx:,} dispatches, "
            f"{rows[name]['py_calls']:,} Python calls; "
            f"traced {wall_traced:.3f}s "
            f"({rows[name]['trace_overhead']:+.1%} vs tracing off)"
        )
    return rows


def _py_calls_failures(figure_rows) -> list:
    """Panels whose measured Python calls exceed their ``MAX_PY_CALLS``
    ceiling (exact: one call over fails)."""
    failures = []
    for name, row in figure_rows.items():
        ceiling = MAX_PY_CALLS.get(name)
        if ceiling is not None and row["py_calls"] > ceiling:
            failures.append(
                f"{name}: {row['py_calls']:,} Python calls exceed the "
                f"ceiling of {ceiling:,} by {row['py_calls'] - ceiling:,}"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop below baseline (default 0.25)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="rounds per engine measurement, best-of-N (default 5)")
    parser.add_argument("--figures", default="fig3a,fig9a",
                        help="comma-separated panels for the figure gate "
                        "(default fig3a,fig9a — the single-flow and multi-flow "
                        "tentpole panels; 'none' skips it)")
    parser.add_argument("--figure-repeat", type=int, default=2,
                        help="rounds per figure measurement, best-of-N (default 2)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this machine's numbers")
    args = parser.parse_args()

    current = bench.engine_metrics(repeat=args.repeat)
    print(
        f"schedule_run: {current['schedule_run_events_per_sec']:,.0f} ev/s "
        f"(normalized {current['schedule_run_normalized']:.4f})"
    )
    print(
        f"cancel_churn: {current['cancel_churn_events_per_sec']:,.0f} ev/s "
        f"(normalized {current['cancel_churn_normalized']:.4f})"
    )

    names = []
    if args.figures and args.figures != "none":
        names = [n.strip() for n in args.figures.split(",") if n.strip()]
    figure_rows = _figure_metrics(
        names, args.figure_repeat, current["calibration_ops_per_sec"]
    )

    if args.update:
        doc = {
            "comment": "calibration-normalized perf floors for CI; regenerate "
            "with tools/check_bench_regression.py --update (engine floors are "
            "throughput minima; figure entries are normalized-cost ceilings "
            "with the express lane on and off; the exact Python-call "
            "ceilings live in the tool as MAX_PY_CALLS)",
            "schedule_run_normalized": current["schedule_run_normalized"],
            "cancel_churn_normalized": current["cancel_churn_normalized"],
            "figures": {
                name: {
                    "max_normalized_cost": row["normalized_cost"],
                    "max_normalized_cost_no_express": row[
                        "normalized_cost_no_express"
                    ],
                }
                for name, row in figure_rows.items()
            },
        }
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = bench.load_baseline(args.baseline)
    failures = bench.compare_to_baseline(current, baseline, args.tolerance)
    gated = {
        name: floor
        for name, floor in baseline.get("figures", {}).items()
        if not names or name in names
    }
    failures += bench.compare_figures_to_baseline(figure_rows, gated, args.tolerance)
    failures += _py_calls_failures(figure_rows)
    for name, row in figure_rows.items():
        if row["trace_overhead"] > MAX_TRACE_OVERHEAD:
            failures.append(
                f"{name}: tracing costs {row['trace_overhead']:.1%} over the "
                f"tracing-off run (ceiling {MAX_TRACE_OVERHEAD:.0%})"
            )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"perf gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
