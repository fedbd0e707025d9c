"""Tracing is observably free.

``repro trace`` (DESIGN.md §12) promises **zero perturbation**: turning
``ExperimentConfig.trace`` on must not change a single exported number. The
hooks only *read* virtual time; if a traced run differed anywhere outside
its ``trace`` payload, the hooks would be leaking into the simulation.

This is checked on random configs across the dimensions that stress the
stamping rules: loss (dropped frames must not record wire stages), LRO
(ring completions merge), small MTU (multi-frame wire batches), RPC
interleave (both directions tracing), DCTCP (ECN marks on traced frames).
The telescoping identity and the auditor's cross-checks must hold too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CongestionControl,
    ExperimentConfig,
    LinkConfig,
    OptimizationConfig,
    TcpConfig,
    TrafficPattern,
    WorkloadConfig,
)
from repro.core.experiment import Experiment
from repro.core.export import result_to_dict
from repro.trace import TraceReport
from repro.units import msec

_OPTS = [
    OptimizationConfig.none(),
    OptimizationConfig.tso_gro_only(),
    OptimizationConfig.tso_gro_jumbo(),
    OptimizationConfig.all(),
    OptimizationConfig(tso_gro=True, jumbo=True, arfs=True, lro=True),
]

_PATTERNS = [
    (TrafficPattern.SINGLE, 1),
    (TrafficPattern.ONE_TO_ONE, 2),
    (TrafficPattern.INCAST, 3),
    (TrafficPattern.MIXED, 1),
]


@st.composite
def trace_configs(draw):
    pattern, num_flows = draw(st.sampled_from(_PATTERNS))
    opts = draw(st.sampled_from(_OPTS))
    lossy = draw(st.booleans())
    link = LinkConfig(
        loss_rate=draw(st.sampled_from([2e-4, 1e-3])) if lossy else 0.0,
        has_switch=lossy,
    )
    dctcp = draw(st.booleans())
    tcp = TcpConfig(
        congestion_control=(
            CongestionControl.DCTCP if dctcp else CongestionControl.CUBIC
        )
    )
    workload = WorkloadConfig()
    if pattern is TrafficPattern.MIXED:
        workload = WorkloadConfig(num_rpc_flows=draw(st.integers(1, 2)))
    return ExperimentConfig(
        pattern=pattern,
        num_flows=num_flows,
        duration_ns=msec(1),
        warmup_ns=msec(1),
        seed=draw(st.integers(1, 5)),
        opts=opts,
        tcp=tcp,
        link=link,
        workload=workload,
    )


def _run(config, trace):
    result = Experiment(config.replace(trace=trace), audit=True).run()
    return result, result_to_dict(result)


@settings(max_examples=8, deadline=None)
@given(config=trace_configs())
def test_tracing_perturbs_nothing(config):
    _, untraced = _run(config, trace=False)
    traced_result, traced = _run(config, trace=True)

    # Zero perturbation: strip the trace payload and the traced run must
    # equal the untraced run exactly, key for key.
    audit_untraced = untraced.pop("audit")
    audit_traced = traced.pop("audit")
    trace_payload = traced.pop("trace")
    assert traced == untraced

    # The telescoping identity survives export, and the auditor (which also
    # cross-checks e2e against the copy-latency metric) passed in both runs.
    checks, violations = traced_result.trace.check_identity()
    assert checks > 0 and violations == []
    round_tripped = TraceReport.from_dict(trace_payload)
    assert round_tripped.check_identity()[1] == []
    assert audit_traced["ok"], audit_traced
    assert audit_untraced["ok"], audit_untraced
