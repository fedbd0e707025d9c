"""Steady-state express lane vs plain events, on random configs.

The express lane (``Engine.express_at`` + the quiescence gate in
``repro.kernel.tcp.express``) registers CPU job completions and lazily-chased
RTO deadlines as uncancellable engine entries, so quiescent bulk flows stop
cancelling and re-arming a timer event per ACK. The promise is *bit-identical
results* — every exported metric, every latency reservoir sample, every RNG
draw — for any configuration, with fewer plain events fired.

These tests run each random config with the lane on and off and require
full observable agreement, plus a clean conservation audit in both modes.
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
from repro.units import msec


def _run_mode(config: ExperimentConfig, express: bool):
    experiment = Experiment(config.replace(express=express), audit=True)
    result = experiment.run()
    payload = result_to_dict(result)
    reservoirs = {
        host: (
            list(experiment.metrics.side(host).latency_samples),
            experiment.metrics.side(host).latency_dropped,
        )
        for host in ("sender", "receiver")
    }
    engine = experiment.engine
    return payload, reservoirs, engine.events_fired, engine.express_fired


_OPTS = [
    OptimizationConfig.none(),
    OptimizationConfig.tso_gro_only(),
    OptimizationConfig.all(),
    OptimizationConfig(tso_gro=True, jumbo=True, arfs=True, lro=True),
]

_PATTERNS = [
    (TrafficPattern.SINGLE, 1),
    (TrafficPattern.ONE_TO_ONE, 2),
    (TrafficPattern.INCAST, 3),
    (TrafficPattern.MIXED, 1),
]

# Express aborts are where the bugs live: loss perturbs quiescence via
# dupacks/recovery, DCTCP perturbs it via ECN-driven cwnd moves, BBR's pacing
# gate exercises cc.quiescent(), and MIXED adds RPC flows that never qualify.
_CCS = [CongestionControl.CUBIC, CongestionControl.DCTCP, CongestionControl.BBR]


@st.composite
def express_configs(draw):
    pattern, num_flows = draw(st.sampled_from(_PATTERNS))
    opts = draw(st.sampled_from(_OPTS))
    lossy = draw(st.booleans())
    link = LinkConfig(
        loss_rate=draw(st.sampled_from([2e-4, 1e-3])) if lossy else 0.0,
        has_switch=lossy,
    )
    tcp = TcpConfig(congestion_control=draw(st.sampled_from(_CCS)))
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


@settings(max_examples=8, deadline=None)
@given(config=express_configs())
def test_express_lane_is_observably_identical_two_ways(config):
    # The lane-off run is the per-event reference the lane must equal.
    payload, samples, events, express_fired = _run_mode(config, True)
    ref_payload, ref_samples, ref_events, ref_express_fired = _run_mode(config, False)
    ref_audit = ref_payload.pop("audit")
    assert ref_audit["ok"], ref_audit
    audit = payload.pop("audit")
    assert audit["ok"], audit

    # Every exported number — throughput, breakdowns, cache rates, latency
    # summary, drop/retransmit counters — must match exactly.
    assert payload == ref_payload
    # Raw reservoirs too: same samples in the same order means every
    # recording happened at the same instant with the same RNG state.
    assert samples == ref_samples

    # With the lane off, nothing may route through it; with it on, steady
    # state should actually use it (every config sustains a bulk flow long
    # enough for at least one quiescent completion to ride the lane), and
    # no more plain events fire than without it.
    assert ref_express_fired == 0
    assert express_fired > 0
    assert events <= ref_events
