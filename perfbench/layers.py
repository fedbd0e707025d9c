"""The simulator's layers, as the benchmark measures them.

A layer is one module of ``src/repro`` (``kernel/tcp`` is a package). Three
views of each layer come from here:

* ``ENTRY_POINTS``: the calls that ``spans.install`` wraps in spans;
* ``MODULES``: the source files whose Python calls a cProfile pass buckets
  into ``<layer>.py_calls`` (exact and repeatable);
* :func:`counters`: the work counters the simulator already keeps, read from
  each ``Experiment`` after it ran.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: ``(layer, module, class or None for module functions, attributes)``.
#: Private callbacks are listed where a layer is entered only through a
#: callback it hands to the engine or a core, or where the frame-train
#: pipeline calls into the NIC or link directly.
ENTRY_POINTS = [
    ("engine", "repro.sim.engine", "Engine", ("run",)),
    ("tcp", "repro.kernel.tcp.endpoint", "TcpEndpoint", (
        "sendmsg", "do_recv", "try_push", "on_ack_frame", "on_data_skb",
        "on_probe_frame", "build_ack_frame", "_rto_fire", "_rto_express_fire",
        "_pacer_fire", "_delack_fire", "_probe_fire", "_autotune_tick",
    )),
    ("train", "repro.hardware.train", "TrainPipeline", (
        "on_transmit", "settle", "settle_final", "rearm", "_on_wake",
    )),
    ("nic", "repro.hardware.nic", "Nic", (
        "transmit", "handle_rx", "_tx_drain", "_rx_ingest",
        "_compose_tx_batch", "_peek_tx_batch",
    )),
    ("link", "repro.hardware.link", "Link", (
        "transmit", "serialize_at", "_deliver_batch",
    )),
    ("napi", "repro.kernel.napi", "NapiContext", (
        "notify", "notify_at", "_raise_irq", "_poll",
    )),
    ("gro", "repro.kernel.gro", "GroEngine", (
        "receive", "receive_record", "receive_run", "flush_all",
    )),
    ("cache", "repro.hardware.cache", "DcaRegion", (
        "dma_write", "consume", "discard",
    )),
    ("cache", "repro.hardware.cache", "L3CacheModel", ("sender_miss_rate",)),
    ("cpu", "repro.hardware.cpu", "Core", (
        "submit", "submit_work", "_finish", "charge_inline",
    )),
    ("profiler", "repro.core.profiler", "CpuProfiler", ("charge", "charge_items")),
    ("metrics", "repro.core.metrics", "MetricsHub", (
        "record_delivered", "record_receiver_copy", "record_sender_copy",
        "record_copy_latency", "record_rx_skb",
    )),
    ("mem", "repro.kernel.mem", "PageAllocator", ("alloc", "free")),
    ("socket", "repro.kernel.socket", "Socket", ("enqueue", "drain", "peek_skbs")),
    ("sched", "repro.kernel.sched", "AppThread", ("start", "complete_op", "block")),
    # Imported by name, so each importing module's binding is wrapped.
    ("sched", "repro.kernel.sched", None, ("charge_wakeup",)),
    ("sched", "repro.kernel.tcp.endpoint", None, ("charge_wakeup",)),
    ("trace", "repro.trace", "StageHistogram", ("record", "to_dict")),
    ("trace", "repro.trace", "SideTrace", ("stage",)),
    ("trace", "repro.trace", "TraceHub", ("reset", "report")),
    ("trace", "repro.trace", "TraceReport", ("to_dict",)),
    # The result payload round trip every run_many result makes.
    ("export", "repro.core.runner", None, ("result_to_dict", "result_from_dict")),
]

#: Layer -> source files (relative to ``src/repro``; a trailing ``/`` is a
#: package) whose calls count as the layer's ``py_calls``.
MODULES = {
    "engine": ("sim/engine.py",),
    "tcp": ("kernel/tcp/",),
    "train": ("hardware/train.py",),
    "nic": ("hardware/nic.py",),
    "link": ("hardware/link.py",),
    "napi": ("kernel/napi.py",),
    "gro": ("kernel/gro.py",),
    "cache": ("hardware/cache.py",),
    "cpu": ("hardware/cpu.py",),
    "profiler": ("core/profiler.py",),
    "metrics": ("core/metrics.py",),
    "mem": ("kernel/mem.py",),
    "socket": ("kernel/socket.py",),
    "syscall": ("kernel/syscall.py",),
    "sched": ("kernel/sched.py",),
    "trace": ("trace.py",),
    "export": ("core/export.py",),
}


def _layer_of_file(path: str, package_root: str) -> str:
    relative = os.path.relpath(path, package_root).replace(os.sep, "/")
    for layer, prefixes in MODULES.items():
        for prefix in prefixes:
            if relative == prefix or (prefix.endswith("/") and relative.startswith(prefix)):
                return layer
    return "other"


def py_calls(run: Callable[[], object], package_root: str) -> Dict[str, int]:
    """Run ``run()`` under cProfile; Python calls per layer, ``other`` (calls
    outside every layer's files: builtins, C functions, the standard library
    and unlisted ``repro`` modules) and ``total``."""
    # Earlier passes leave experiments in reference cycles. Collected during
    # the profiled pass, each closes its application-body generators, and
    # cProfile counts every close as a call, so the count would depend on
    # how many passes ran before.
    gc.collect()
    profiler = cProfile.Profile()
    profiler.runcall(run)
    stats = pstats.Stats(profiler).stats
    calls = {layer: 0 for layer in MODULES}
    calls["other"] = 0
    for (filename, _, _), (_, ncalls, _, _, _) in stats.items():
        calls[_layer_of_file(filename, package_root)] += ncalls
    calls["total"] = sum(calls.values())
    return calls


@contextmanager
def capture_runs() -> Iterator[List[Tuple[object, object]]]:
    """Collect ``(experiment, result)`` for every ``Experiment.run`` in the
    block, so counters can be read after ``run_many`` has returned."""
    from repro.core.experiment import Experiment

    runs: List[Tuple[object, object]] = []
    original = vars(Experiment)["run"]

    def run(experiment):
        result = original(experiment)
        runs.append((experiment, result))
        return result

    Experiment.run = run
    try:
        yield runs
    finally:
        Experiment.run = original


def counters(runs: List[Tuple[object, object]]) -> Dict[str, float]:
    """Work counters summed over every ``(experiment, result)`` of one pass,
    and the ratios built from the sums. Counters are cumulative over warmup
    and measurement; ``cpu.busy_cores`` and ``model.gbps_per_core`` are
    measurement-window results averaged over the experiments."""
    total = dict(
        wheel=0, express=0, cancelled=0, retransmits=0, timeouts=0, acks=0,
        nic_drops=0, link_drops=0, polls=0, irqs=0, gro_in=0, gro_out=0,
        evicted=0, copy_hit=0, copy_miss=0, pcp=0, global_allocs=0,
        busy_cores=0.0, gbps_per_core=0.0,
    )
    for experiment, result in runs:
        engine = experiment.engine
        total["wheel"] += engine.events_fired
        total["express"] += engine.express_fired
        total["cancelled"] += engine.events_cancelled
        for link in (experiment.link_to_receiver, experiment.link_to_sender):
            total["link_drops"] += link.frames_dropped
        for host in (experiment.sender, experiment.receiver):
            for endpoint in host.endpoints.values():
                total["retransmits"] += endpoint.retransmits
                total["timeouts"] += endpoint.timeouts
                total["acks"] += endpoint.acks_sent
            total["nic_drops"] += host.nic.total_rx_drops()
            for napi in host.napis:
                total["polls"] += napi.polls
                total["irqs"] += napi.irqs
                total["gro_in"] += napi.gro.frames_in
                total["gro_out"] += napi.gro.skbs_out
            total["evicted"] += host.cache.dca.bytes_evicted
            total["pcp"] += host.allocator.pcp_allocs
            total["global_allocs"] += host.allocator.global_allocs
        side = experiment.metrics.side("receiver")
        total["copy_hit"] += side.copy_hit_bytes
        total["copy_miss"] += side.copy_miss_bytes
        total["busy_cores"] += (
            result.sender_utilization_cores + result.receiver_utilization_cores
        )
        total["gbps_per_core"] += result.throughput_per_core_gbps
    count = max(1, len(runs))
    return {
        "engine.dispatches": total["wheel"] + total["express"],
        "engine.wheel_fired": total["wheel"],
        "engine.express_fired": total["express"],
        "engine.cancelled": total["cancelled"],
        "engine.cancel_ratio": _ratio(total["cancelled"], total["wheel"] + total["cancelled"]),
        "tcp.retransmits": total["retransmits"],
        "tcp.timeouts": total["timeouts"],
        "tcp.acks_sent": total["acks"],
        "nic.rx_drops": total["nic_drops"],
        "link.frames_dropped": total["link_drops"],
        "napi.polls": total["polls"],
        "napi.irqs": total["irqs"],
        "napi.frames_per_poll": _ratio(total["gro_in"], total["polls"]),
        "gro.merge_ratio": _ratio(total["gro_in"], total["gro_out"]),
        "cache.bytes_evicted": total["evicted"],
        "cache.rx_miss_rate": _ratio(total["copy_miss"], total["copy_hit"] + total["copy_miss"]),
        "mem.pcp_ratio": _ratio(total["pcp"], total["pcp"] + total["global_allocs"]),
        "cpu.busy_cores": total["busy_cores"] / count,
        "model.gbps_per_core": total["gbps_per_core"] / count,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
