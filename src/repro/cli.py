"""Command-line interface: run experiments and regenerate paper figures.

Usage examples::

    python -m repro run --pattern incast --flows 8
    python -m repro run --pattern single --no-arfs --loss 1.5e-3
    python -m repro figure fig3a
    python -m repro figure fig3e --jobs 8        # fan the sweep out across workers
    python -m repro figure fig8c --export /tmp/fig8c.csv
    python -m repro figure fig3a --no-cache      # force re-simulation
    python -m repro figure fig3a --audit         # conservation-audit every run
    python -m repro trace fig3a                  # per-stage latency breakdown
    python -m repro audit fig3a --jobs 4         # audit only, no table output
    python -m repro list

Results are cached on disk keyed by a content hash of the full experiment
config (see ``repro.core.cache``), so re-running an unchanged figure is a
near-instant cache hit; ``--no-cache`` disables it and ``--cache-dir`` moves
it (default: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-hostnet``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import (
    CongestionControl,
    ExperimentConfig,
    HostConfig,
    LinkConfig,
    NicConfig,
    NumaPolicy,
    OptimizationConfig,
    TcpConfig,
    TrafficPattern,
    WorkloadConfig,
)
from .core.cache import ResultCache, default_cache_dir
from .core.export import export_table, result_to_json
from .core.runner import RunnerStats, run_many
from .figures import base as figures_base
from .units import kb, msec


def _jobs_arg(text: str) -> int:
    jobs = int(text)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = one per CPU), got {jobs}"
        )
    return jobs


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Runner knobs shared by the ``run`` and ``figure`` subcommands."""
    parser.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                        help="worker processes for independent experiments "
                        "(0 = one per CPU; default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro-hostnet)")
    parser.add_argument("--audit", action="store_true",
                        help="run the conservation auditor on every experiment "
                        "(byte/cycle/event accounting; implies --no-cache; "
                        "exits non-zero on violations)")
    parser.add_argument("--no-express", action="store_true",
                        help="disable the steady-state express lane and "
                        "schedule CPU completions / TCP timers as plain "
                        "cancellable events (byte-identical results)")


def _runner_settings(args: argparse.Namespace):
    """Map parsed runner flags to ``(jobs, cache, audit)`` for run_many."""
    jobs = None if args.jobs == 0 else args.jobs
    audit = getattr(args, "audit", False)
    # Audited runs never touch the cache: a cached entry carries the audit
    # of the run that produced it, not of the current code.
    cache = None if (args.no_cache or audit) else ResultCache(
        args.cache_dir if args.cache_dir else default_cache_dir()
    )
    return jobs, cache, audit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulation-based reproduction of 'Understanding Host "
        "Network Stack Overheads' (SIGCOMM 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and print its result")
    run.add_argument("--pattern", default="single",
                     choices=[p.value for p in TrafficPattern])
    run.add_argument("--flows", type=int, default=1)
    run.add_argument("--duration-ms", type=float, default=8.0)
    run.add_argument("--warmup-ms", type=float, default=10.0)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--no-tso-gro", action="store_true")
    run.add_argument("--no-jumbo", action="store_true")
    run.add_argument("--no-arfs", action="store_true")
    run.add_argument("--lro", action="store_true", help="NIC-side merge instead of GRO")
    run.add_argument("--no-dca", action="store_true", help="disable DDIO")
    run.add_argument("--iommu", action="store_true", help="enable the IOMMU")
    run.add_argument("--numa-remote", action="store_true",
                     help="place receiver apps on NIC-remote NUMA nodes")
    run.add_argument("--cc", default="cubic",
                     choices=[c.value for c in CongestionControl])
    run.add_argument("--loss", type=float, default=0.0,
                     help="random drop rate at an in-path switch")
    run.add_argument("--rx-buffer-kb", type=int, default=0,
                     help="pin the TCP Rx buffer (disables autotuning)")
    run.add_argument("--ring", type=int, default=0, help="NIC Rx descriptors")
    run.add_argument("--rpc-kb", type=int, default=4, help="RPC message size")
    run.add_argument("--rpc-flows", type=int, default=0,
                     help="short flows for the mixed pattern")
    run.add_argument("--json", action="store_true", help="emit JSON")
    _add_runner_args(run)

    figure = sub.add_parser("figure", help="regenerate one paper figure panel")
    figure.add_argument("name", help="e.g. fig3a, fig8c, table1")
    figure.add_argument("--export", help="write the table to a .csv/.json file")
    _add_runner_args(figure)

    trace = sub.add_parser(
        "trace",
        help="run one figure's experiments with per-stage latency tracing "
        "and render the stage-by-stage breakdown (avg/p50/p99 per stage, "
        "audit-checked against the end-to-end copy latency)",
    )
    trace.add_argument("name", help="e.g. fig3a, fig8c, table1")
    trace.add_argument("--export", help="write the trace table to .csv/.json")
    _add_runner_args(trace)

    audit = sub.add_parser(
        "audit",
        help="run one figure's experiments under the conservation auditor "
        "and report every byte/cycle/event accounting violation",
    )
    audit.add_argument("name", help="e.g. fig3a, fig8c, table1")
    audit.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                       help="worker processes (0 = one per CPU; default 1)")
    audit.add_argument("--no-express", action="store_true",
                       help="audit with the steady-state express lane off")

    bench = sub.add_parser(
        "bench",
        help="record a BENCH_<stamp>.json perf snapshot (also appended to "
        "BENCH_HISTORY.jsonl): engine micro-benchmarks plus per-figure wall "
        "times and dispatch counts, each figure timed with the express lane "
        "on (the default) and with --no-express",
    )
    bench.add_argument("--figures", default="fig3a,fig9a", metavar="NAMES",
                       help="comma-separated panel names to time "
                       "(default fig3a,fig9a; 'none' skips figure timing)")
    bench.add_argument("--repeat", type=int, default=3, metavar="N",
                       help="rounds per measurement; best-of-N is kept "
                       "(default 3)")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="output path (default BENCH_<stamp>.json in cwd)")

    lint = sub.add_parser(
        "lint",
        help="run the repro static-analysis checkers (determinism, "
        "cache-key completeness, slots discipline) "
        "over src/repro; exits non-zero on new findings or stale baseline "
        "entries",
    )
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file of accepted findings (default: "
                      "src/repro/analysis/baseline.json)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline from the current findings "
                      "(preserving reasons of surviving entries) instead of "
                      "failing on them")
    lint.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")
    lint.add_argument("--verbose", action="store_true",
                      help="print each rule's rationale under its findings")

    sub.add_parser("list", help="list available figure panels")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    opts = OptimizationConfig(
        tso_gro=not args.no_tso_gro,
        jumbo=not args.no_jumbo,
        arfs=not args.no_arfs,
        lro=args.lro,
    )
    tcp = TcpConfig(congestion_control=CongestionControl(args.cc))
    if args.rx_buffer_kb:
        tcp.rx_buffer_bytes = kb(args.rx_buffer_kb)
        tcp.autotune_rx_buffer = False
    nic = NicConfig()
    if args.ring:
        nic.rx_descriptors = args.ring
    link = LinkConfig(loss_rate=args.loss, has_switch=args.loss > 0)
    host = HostConfig(dca_enabled=not args.no_dca, iommu_enabled=args.iommu)
    return ExperimentConfig(
        pattern=TrafficPattern(args.pattern),
        num_flows=args.flows,
        duration_ns=msec(args.duration_ms),
        warmup_ns=msec(args.warmup_ms),
        seed=args.seed,
        opts=opts,
        tcp=tcp,
        nic=nic,
        link=link,
        host=host,
        numa_policy=(
            NumaPolicy.NIC_REMOTE if args.numa_remote else NumaPolicy.NIC_LOCAL_FIRST
        ),
        workload=WorkloadConfig(
            rpc_size_bytes=kb(args.rpc_kb), num_rpc_flows=args.rpc_flows
        ),
        express=not args.no_express,
    )


def _panel_registry() -> dict:
    from .figures import figure_generators, tables

    return {"table1": tables.table1, "table2": tables.table2, **figure_generators()}


def cmd_run(args: argparse.Namespace) -> int:
    jobs, cache, audit = _runner_settings(args)
    config = _config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    stats = RunnerStats()
    result = run_many([config], jobs=jobs, cache=cache,
                      stats=stats, audit=audit)[0]
    if stats.cache_hits:
        print("(served from result cache)", file=sys.stderr)
    if args.json:
        print(result_to_json(result))
        return _audit_exit_code(result.audit_report)
    print(result.summary())
    print()
    print("receiver CPU breakdown:")
    for label, fraction in result.receiver_breakdown.as_rows():
        print(f"  {label:22s} {fraction:6.1%}")
    print("sender CPU breakdown:")
    for label, fraction in result.sender_breakdown.as_rows():
        print(f"  {label:22s} {fraction:6.1%}")
    if result.audit_report is not None:
        print()
        print(result.audit_report.render())
    return _audit_exit_code(result.audit_report)


def _audit_exit_code(report) -> int:
    return 1 if report is not None and not report.ok else 0


def _run_panel(name: str, jobs, cache, audit: bool, trace: bool = False,
               express: bool = True):
    """Run one figure panel under the given runner settings.

    Returns ``(table, merged_audit_report)``; the report is ``None`` when
    auditing is off. With ``trace`` a merged
    :class:`~repro.trace.TraceReport` is appended: ``(table, audit_report,
    trace_report)``. Raises ``KeyError`` for an unknown panel name.
    """
    from .core.audit import merge_reports
    from .trace import TraceReport

    generator = _panel_registry()[name]
    figures_base.configure(
        jobs=jobs, cache=cache, audit=audit, trace=trace, express=express,
    )
    figures_base.STATS.reset()
    try:
        table = generator()
        report = merge_reports(figures_base.AUDIT_REPORTS) if audit else None
        if trace:
            # Merge before the finally clause's configure() clears the list.
            trace_report = TraceReport.merge(figures_base.TRACE_REPORTS)
    finally:
        figures_base.configure()  # restore the sequential, uncached default
    if trace:
        return table, report, trace_report
    return table, report


def cmd_figure(args: argparse.Namespace) -> int:
    jobs, cache, audit = _runner_settings(args)
    try:
        table, report = _run_panel(
            args.name, jobs, cache, audit, express=not args.no_express,
        )
    except KeyError:
        print(f"unknown panel {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    stats = figures_base.STATS
    if stats.experiments_run or stats.cache_hits:
        print(
            f"runner: {stats.experiments_run} experiments simulated, "
            f"{stats.cache_hits} served from cache",
            file=sys.stderr,
        )
    print(table.render())
    if report is not None:
        print(report.render(), file=sys.stderr)
    if args.export:
        export_table(table, args.export)
        print(f"\nwritten to {args.export}")
    return _audit_exit_code(report)


def cmd_trace(args: argparse.Namespace) -> int:
    jobs, cache, audit = _runner_settings(args)
    try:
        table, report, trace_report = _run_panel(
            args.name, jobs, cache, audit, trace=True,
            express=not args.no_express,
        )
    except KeyError:
        print(f"unknown panel {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    stats = figures_base.STATS
    if stats.experiments_run or stats.cache_hits:
        print(
            f"runner: {stats.experiments_run} experiments simulated, "
            f"{stats.cache_hits} served from cache",
            file=sys.stderr,
        )
    trace_table = trace_report.to_table(f"{args.name}: per-stage latency")
    print(trace_table.render())
    checks, violations = trace_report.check_identity()
    if violations:
        print(f"trace identity FAILED ({checks} checks):", file=sys.stderr)
        for message in violations:
            print(f"  - {message}", file=sys.stderr)
    else:
        print(
            f"trace identity ok: stage deltas sum to end-to-end copy latency "
            f"({checks} checks)",
            file=sys.stderr,
        )
    if report is not None:
        print(report.render(), file=sys.stderr)
    if args.export:
        export_table(trace_table, args.export)
        print(f"\nwritten to {args.export}")
    if violations:
        return 1
    return _audit_exit_code(report)


def cmd_audit(args: argparse.Namespace) -> int:
    jobs = None if args.jobs == 0 else args.jobs
    try:
        _, report = _run_panel(
            args.name, jobs, None, True, express=not args.no_express,
        )
    except KeyError:
        print(f"unknown panel {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    stats = figures_base.STATS
    print(f"{args.name}: {stats.experiments_run} experiments audited",
          file=sys.stderr)
    print(report.render())
    return _audit_exit_code(report)


def cmd_bench(args: argparse.Namespace) -> int:
    import time

    from . import bench

    names: List[str] = []
    if args.figures and args.figures != "none":
        registry = _panel_registry()
        names = [name.strip() for name in args.figures.split(",") if name.strip()]
        unknown = [name for name in names if name not in registry]
        if unknown:
            print(f"unknown panels {unknown}; try `python -m repro list`",
                  file=sys.stderr)
            return 2

    print("engine micro-benchmarks...", file=sys.stderr)
    engine = bench.engine_metrics(repeat=args.repeat)

    def _time_panel(name: str, express: bool) -> dict:
        """Best-of-N wall time plus engine dispatch counts for one panel.

        The workload is deterministic, so the event counters are identical
        across repeats; the last repeat's counts serve for all. Bench
        always simulates cold (no result cache), so cache counters are
        meaningless here and deliberately not recorded.
        """
        best_wall = float("inf")
        for _ in range(args.repeat):
            figures_base.STATS.reset()
            # repro-lint: allow[det-wallclock] bench measures host wall time
            start = time.perf_counter()
            _run_panel(name, jobs=1, cache=None, audit=False, express=express)
            wall = time.perf_counter() - start  # repro-lint: allow[det-wallclock] bench measures host wall time
            if wall < best_wall:
                best_wall = wall
        stats = figures_base.STATS
        return {
            "wall_seconds": best_wall,
            "experiments_run": stats.experiments_run,
            "events_fired": stats.events_fired,
            "events_cancelled": stats.events_cancelled,
            "express_fired": stats.express_fired,
        }

    figures = {}
    for name in names:
        print(f"timing {name}...", file=sys.stderr)
        row = _time_panel(name, express=True)
        print(f"timing {name} (--no-express)...", file=sys.stderr)
        no_express = _time_panel(name, express=False)
        del no_express["experiments_run"]
        row["no_express"] = no_express
        reduction = bench.events_reduction(row, no_express)
        if reduction is not None:
            row["events_reduction"] = reduction
        figures[name] = row

    doc = bench.snapshot(figures, engine)
    path = bench.write_snapshot(doc, args.out)
    print(f"snapshot written to {path}")
    print(
        f"engine: schedule_run {engine['schedule_run_events_per_sec']:,.0f} ev/s, "
        f"cancel_churn {engine['cancel_churn_events_per_sec']:,.0f} ev/s "
        f"(normalized {engine['schedule_run_normalized']:.3f} / "
        f"{engine['cancel_churn_normalized']:.3f})"
    )
    for name, row in figures.items():
        line = (f"{name}: {row['wall_seconds']:.3f}s wall, "
                f"{row['experiments_run']} experiments, "
                f"{bench.dispatches(row):,} dispatches "
                f"({row['events_fired']:,} plain + {row['express_fired']:,} express)")
        if "events_reduction" in row:
            no_express = row["no_express"]
            line += (f"; {row['events_reduction']:.1%} fewer than --no-express's "
                     f"{bench.dispatches(no_express):,} in "
                     f"{no_express['wall_seconds']:.3f}s")
        print(line)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import lint as lint_mod

    baseline_path = Path(args.baseline) if args.baseline else None
    report = lint_mod.run_lint(baseline_path=baseline_path)
    if args.write_baseline:
        path = lint_mod.update_baseline(report, path=baseline_path)
        print(f"wrote {len(report.findings)} finding(s) to {path}")
        return 0
    if args.json:
        print(lint_mod.render_json(report))
    else:
        print(lint_mod.render_text(report, verbose=args.verbose))
    return report.exit_code


def cmd_list(_: argparse.Namespace) -> int:
    for name in sorted(_panel_registry()):
        print(name)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "figure": cmd_figure,
        "trace": cmd_trace,
        "audit": cmd_audit,
        "bench": cmd_bench,
        "lint": cmd_lint,
        "list": cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
