"""Shared plumbing for the figure generators.

Simulated durations are short (milliseconds) because steady-state rates
converge quickly; warmups are sized per scenario so receive-buffer autotuning
and queue fill transients complete before measurement (incast with many
autotuned flows needs the longest warmup).

All figure experiments flow through :func:`run_all`, which hands the batch to
:func:`repro.core.runner.run_many`. The module-level runtime (set by
``repro figure --jobs/--cache-dir`` via :func:`configure`) decides how many
worker processes to use and whether results come from / go to the persistent
result cache; the default (one process, no cache) matches the historical
sequential behaviour exactly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..config import ExperimentConfig, TrafficPattern
from ..core.cache import ResultCache
from ..core.results import ExperimentResult
from ..core.runner import RunnerStats, run_many
from ..units import msec

#: Measurement window used by all figures.
DURATION_NS = msec(8)

#: Warmup per traffic pattern (queue-fill transients differ).
WARMUP_NS = {
    TrafficPattern.SINGLE: msec(10),
    TrafficPattern.ONE_TO_ONE: msec(12),
    TrafficPattern.INCAST: msec(40),
    TrafficPattern.OUTCAST: msec(12),
    TrafficPattern.ALL_TO_ALL: msec(12),
    TrafficPattern.RPC_INCAST: msec(12),
    TrafficPattern.MIXED: msec(12),
}

#: Process-pool width for figure batches (1 = in-process, None = per-CPU).
_JOBS: Optional[int] = 1
#: Shared result cache, or None to always simulate.
_CACHE: Optional[ResultCache] = None
#: Run every experiment with the conservation auditor (disables the cache).
_AUDIT: bool = False
#: Steady-state express lane (``repro ... --no-express`` disables). Results
#: are byte-identical either way; the flag exists as an escape hatch and for
#: the bench cross-check.
_EXPRESS: bool = True
#: Run every experiment with per-stage latency tracing (``repro trace``).
#: Part of the config (and hence the cache key), unlike ``_EXPRESS``.
_TRACE: bool = False
#: Counters accumulated across every figure run since the last reset.
STATS = RunnerStats()
#: Audit reports collected from audited figure runs since the last configure.
AUDIT_REPORTS: List = []
#: Trace reports collected from traced figure runs since the last configure.
TRACE_REPORTS: List = []


def configure(
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    audit: bool = False,
    trace: bool = False,
    express: bool = True,
) -> None:
    """Set the runner used by every subsequent figure generation."""
    global _JOBS, _CACHE, _AUDIT, _TRACE, _EXPRESS
    _JOBS = jobs
    _CACHE = cache
    _AUDIT = audit
    _TRACE = trace
    _EXPRESS = express
    AUDIT_REPORTS.clear()
    TRACE_REPORTS.clear()


def runtime() -> tuple:
    """The currently configured ``(jobs, cache, audit)`` triple."""
    return _JOBS, _CACHE, _AUDIT


def prepare(
    config: ExperimentConfig, warmup_ns: Optional[int] = None
) -> ExperimentConfig:
    """Apply the figure-standard duration/warmup (and the configured express
    and trace switches) to ``config``."""
    if warmup_ns is None:
        warmup_ns = WARMUP_NS[config.pattern]
    return config.replace(
        duration_ns=DURATION_NS, warmup_ns=warmup_ns,
        trace=_TRACE, express=_EXPRESS,
    )


def run_all(
    configs: Iterable[ExperimentConfig], warmup_ns: Optional[int] = None
) -> List[ExperimentResult]:
    """Run a figure's whole batch of configs with figure-standard windows.

    Results come back in input order; independent configs fan out across the
    configured worker pool and are served from the result cache when warm.
    """
    prepared = [prepare(config, warmup_ns) for config in configs]
    results = run_many(prepared, jobs=_JOBS, cache=_CACHE, stats=STATS, audit=_AUDIT)
    if _AUDIT:
        AUDIT_REPORTS.extend(
            result.audit_report for result in results
            if result.audit_report is not None
        )
    if _TRACE:
        TRACE_REPORTS.extend(
            result.trace for result in results if result.trace is not None
        )
    return results


def run(config: ExperimentConfig, warmup_ns: Optional[int] = None) -> ExperimentResult:
    """Run one config with figure-standard duration/warmup."""
    return run_all([config], warmup_ns=warmup_ns)[0]


def pct(fraction: float) -> str:
    return f"{100 * fraction:.0f}%"
