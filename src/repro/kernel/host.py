"""Per-host wiring of the full data path.

A :class:`Host` owns the hardware (topology, cores, L3/DCA, NIC with one Rx
queue per core) and the kernel state (page allocator, IOMMU, NAPI contexts,
TCP endpoints). Flow steering follows the experiment configuration:

* **aRFS on** — the flow's Rx queue is the one whose IRQ core *is* the
  application core (install may fail when the NIC steering table is full,
  falling back to RSS — the §3.5 all-to-all caveat).
* **aRFS off, worst-case mapping** — IRQs are pinned to a core on a NUMA node
  different from the application's (the paper's deterministic worst case).
* **aRFS off, no pinning** — plain RSS hashing across all queues.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..config import ExperimentConfig
from ..core.profiler import CpuProfiler
from ..costs.model import CostModel
from ..hardware.cache import L3CacheModel
from ..hardware.cpu import Core
from ..hardware.iommu import IommuModel
from ..hardware.nic import Nic
from ..hardware.steering import SteeringEngine
from ..hardware.topology import Topology
from .mem import PageAllocator
from .napi import NapiContext
from .tcp.endpoint import TcpEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from ..core.metrics import MetricsHub
    from ..sim.engine import Engine
    from ..sim.rng import RngStreams


class Host:
    """One server: hardware plus kernel stack instances."""

    def __init__(
        self,
        engine: "Engine",
        name: str,
        config: ExperimentConfig,
        costs: CostModel,
        profiler: CpuProfiler,
        metrics: "MetricsHub",
        rngs: "RngStreams",
        trace=None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.config = config
        self.costs = costs
        self.profiler = profiler
        self.metrics = metrics
        # Per-host trace sink (None unless config.trace): every data-path
        # hook gates on one ``is not None`` check against this reference.
        self.trace = trace.side(name) if trace is not None else None

        host_cfg = config.host
        self.topology = Topology(
            host_cfg.numa_nodes, host_cfg.cores_per_node, host_cfg.nic_numa_node
        )
        for core_id in range(self.topology.total_cores):
            core = Core(
                engine,
                profiler,
                costs,
                name,
                core_id,
                self.topology.node_of_core(core_id),
                host_cfg.cpu_freq_hz,
            )
            self.topology.register_core(core)

        dca_capacity = int(host_cfg.l3_cache_bytes * host_cfg.dca_fraction)
        self.cache = L3CacheModel(
            num_nodes=host_cfg.numa_nodes,
            l3_bytes=host_cfg.l3_cache_bytes,
            dca_capacity_bytes=dca_capacity,
            nic_node=host_cfg.nic_numa_node,
            dca_enabled=host_cfg.dca_enabled,
            dilution_exponent=host_cfg.dca_dilution_exponent,
            rng=rngs.stream(f"dca-{name}"),
        )
        self.allocator = PageAllocator(costs)
        self.iommu = IommuModel(host_cfg.iommu_enabled, costs)

        self.steering = SteeringEngine(
            config.steering,
            rngs.stream(f"steering-{name}"),
            config.nic.arfs_table_capacity,
        )
        self.nic = Nic(
            engine,
            name=f"nic-{name}",
            numa_node=host_cfg.nic_numa_node,
            mtu=config.opts.mtu,
            tso=config.opts.tso_gro,
            lro=config.opts.lro,
            rx_descriptors=config.nic.rx_descriptors,
            steering=self.steering,
            dca=self.cache.dca,  # carries its own enabled flag
        )
        self.nic.trace = self.trace
        # One Rx queue per core, IRQ-affined to that core.
        self.napis: List[NapiContext] = []
        for core in self.topology.cores:
            queue = self.nic.add_rx_queue(core)
            self.napis.append(NapiContext(self, queue))

        self.endpoints: Dict[int, TcpEndpoint] = {}

    # --- construction helpers ----------------------------------------------------

    def core(self, index: int) -> Core:
        return self.topology.cores[index]

    def add_endpoint(
        self, flow_id: int, app_core: Core, flow_tag: str = "long"
    ) -> TcpEndpoint:
        """Create a TCP endpoint for ``flow_id`` pinned to ``app_core`` and
        configure its receive-side steering."""
        if flow_id in self.endpoints:
            raise ValueError(f"duplicate flow id {flow_id} on host {self.name}")
        endpoint = TcpEndpoint(self, flow_id, app_core, flow_tag)
        self.endpoints[flow_id] = endpoint
        self.metrics.register_flow(flow_id, flow_tag)
        self._steer_flow(endpoint)
        # Sender-side working set (application write buffer) warms this
        # node's L3; used by the sender-copy miss heuristic.
        self.cache.register_working_set(
            app_core.numa_node, 2 * self.config.workload.app_write_bytes
        )
        return endpoint

    def _steer_flow(self, endpoint: TcpEndpoint) -> None:
        from ..config import SteeringMode

        app_core = endpoint.app_core
        queue = self.nic.queues[app_core.core_id]
        if self.config.opts.arfs:
            if self.steering.install_arfs(endpoint.flow_id, queue):
                endpoint.softirq_core = app_core
                return
            # table full: flow falls back to RSS
            endpoint.softirq_core = self.steering.queue_for(endpoint.flow_id).irq_core
            return
        if self.config.worst_case_irq_mapping:
            remote_core = self.topology.remote_core_for(app_core)
            remote_queue = self.nic.queues[remote_core.core_id]
            self.steering.pin_flow(endpoint.flow_id, remote_queue)
            endpoint.softirq_core = remote_core
            return
        hash_core = self.steering.queue_for(endpoint.flow_id).irq_core
        if self.config.steering is SteeringMode.RFS:
            # Software RFS: the IRQ lands on the hash-selected core, but
            # TCP processing is forwarded to the application's core.
            endpoint.softirq_core = app_core
        else:
            # RSS and RPS both end up processing on the hash-selected core
            # (RPS re-hashes in software to the same 4-tuple target).
            endpoint.softirq_core = hash_core

    # --- DCA helpers used by endpoints -------------------------------------------------

    def dca_consume(self, region_id: int, nbytes: int):
        if self.nic.dca is None:
            return 0, nbytes
        return self.nic.dca.consume(region_id, nbytes)

    def dca_discard(self, region_id: int) -> None:
        if self.nic.dca is not None:
            self.nic.dca.discard(region_id)

    # --- queries -----------------------------------------------------------------------------

    def reset_cycle_accounting(self) -> None:
        """Zero every core's busy-cycle counter (end of warmup, alongside
        ``CpuProfiler.reset`` — both record charges at job start, so resetting
        them at the same instant keeps cycle conservation exact)."""
        for core in self.topology.cores:
            core.reset_cycle_accounting()

    def utilization_cores(self, elapsed_ns: int) -> float:
        """Total CPU utilization in units of fully-busy cores."""
        if elapsed_ns <= 0:
            return 0.0
        cycles = self.profiler.total_cycles(self.name)
        return cycles / (self.config.host.cpu_freq_hz * elapsed_ns / 1e9)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} flows={len(self.endpoints)}>"
