"""Experiment configuration.

``ExperimentConfig`` fully describes one run: the traffic pattern and workload,
which stack optimizations are enabled (the paper's incremental columns), host
hardware parameters, TCP parameters, and link/switch behaviour.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

from . import constants
from .units import kb, msec


class TrafficPattern(enum.Enum):
    """The five standard traffic patterns of Fig 2, plus the paper's §3.7 mixes."""

    SINGLE = "single"            # one sender core -> one receiver core
    ONE_TO_ONE = "one-to-one"    # flow i: sender core i -> receiver core i
    INCAST = "incast"            # every sender core -> one receiver core
    OUTCAST = "outcast"          # one sender core -> every receiver core
    ALL_TO_ALL = "all-to-all"    # x sender cores x x receiver cores
    RPC_INCAST = "rpc-incast"    # N ping-pong RPC clients -> one server app (Fig 10)
    MIXED = "mixed"              # 1 long flow + N short RPC flows on one core (Fig 11)


class SteeringMode(enum.Enum):
    """Receiver-side flow steering techniques (paper Table 2)."""

    RSS = "rss"    # NIC hashes 4-tuple to pick the IRQ core
    RPS = "rps"    # software hash-based steering
    RFS = "rfs"    # software steering to the application's core
    ARFS = "arfs"  # NIC steers IRQ to the application's core


class CongestionControl(enum.Enum):
    """Congestion control algorithms studied in §3.10."""

    CUBIC = "cubic"
    RENO = "reno"
    DCTCP = "dctcp"
    BBR = "bbr"


class NumaPolicy(enum.Enum):
    """Where application threads are placed relative to the NIC."""

    NIC_LOCAL_FIRST = "nic-local-first"  # fill NIC-local NUMA node, then spill
    NIC_REMOTE = "nic-remote"            # force apps onto a NIC-remote node (Fig 4, 10c)


@dataclass
class OptimizationConfig:
    """The incrementally-enabled optimizations of Fig 3a.

    The paper's four columns are: *No Opt.* (GSO disabled too, footnote 5),
    *+TSO/GRO*, *+Jumbo*, *+aRFS*.
    """

    tso_gro: bool = True   # NIC TSO on Tx, software GRO on Rx
    jumbo: bool = True     # 9000B MTU instead of 1500B
    arfs: bool = True      # NIC steers IRQs to the application core
    lro: bool = False      # NIC-side receive merging instead of GRO (footnote 3)

    @classmethod
    def none(cls) -> "OptimizationConfig":
        return cls(tso_gro=False, jumbo=False, arfs=False)

    @classmethod
    def tso_gro_only(cls) -> "OptimizationConfig":
        return cls(tso_gro=True, jumbo=False, arfs=False)

    @classmethod
    def tso_gro_jumbo(cls) -> "OptimizationConfig":
        return cls(tso_gro=True, jumbo=True, arfs=False)

    @classmethod
    def all(cls) -> "OptimizationConfig":
        return cls(tso_gro=True, jumbo=True, arfs=True)

    @classmethod
    def incremental_ladder(cls) -> "list[tuple[str, OptimizationConfig]]":
        """The paper's incremental columns, in order."""
        return [
            ("No Opt.", cls.none()),
            ("+TSO/GRO", cls.tso_gro_only()),
            ("+Jumbo", cls.tso_gro_jumbo()),
            ("+aRFS", cls.all()),
        ]

    @property
    def mtu(self) -> int:
        return constants.JUMBO_MTU if self.jumbo else constants.DEFAULT_MTU


@dataclass
class NicConfig:
    """NIC parameters (Mellanox ConnectX-5-like)."""

    num_queues: int = constants.DEFAULT_NIC_NUM_QUEUES
    rx_descriptors: int = constants.DEFAULT_NIC_RX_DESCRIPTORS
    tx_descriptors: int = constants.DEFAULT_NIC_TX_DESCRIPTORS
    arfs_table_capacity: int = constants.ARFS_TABLE_CAPACITY


@dataclass
class HostConfig:
    """Host hardware parameters (paper §2.2 testbed)."""

    numa_nodes: int = constants.NUM_NUMA_NODES
    cores_per_node: int = constants.CORES_PER_NUMA_NODE
    cpu_freq_hz: float = constants.CPU_FREQ_HZ
    nic_numa_node: int = constants.NIC_NUMA_NODE
    l3_cache_bytes: int = constants.L3_CACHE_BYTES
    dca_fraction: float = constants.DCA_FRACTION_OF_L3
    dca_enabled: bool = True      # DDIO on by default (§3.8)
    iommu_enabled: bool = False   # IOMMU off by default (§3.9)
    # How strongly large NIC-descriptor footprints dilute effective DCA
    # capacity (imperfect replacement / complex addressing, §3.1).
    dca_dilution_exponent: float = 0.25


@dataclass
class TcpConfig:
    """TCP parameters."""

    rx_buffer_bytes: int = constants.DEFAULT_TCP_RX_BUFFER_BYTES
    tx_buffer_bytes: int = constants.DEFAULT_TCP_TX_BUFFER_BYTES
    # The kernel autotunes the Rx buffer by default (DRS); §3.1's tuning
    # experiments (Fig 3e/3f) override it with a fixed size (footnote 6).
    autotune_rx_buffer: bool = True
    autotune_max_bytes: int = kb(4096)
    congestion_control: CongestionControl = CongestionControl.CUBIC
    init_cwnd_segments: int = constants.TCP_INIT_CWND_SEGMENTS
    delayed_ack_timeout_ns: int = constants.DELAYED_ACK_TIMEOUT_NS
    ack_every_n_segments: int = constants.ACK_EVERY_N_SEGMENTS


@dataclass
class LinkConfig:
    """Link and optional in-path switch (§3.6)."""

    bandwidth_bps: float = constants.LINK_BANDWIDTH_BPS
    propagation_ns: int = constants.LINK_PROPAGATION_NS
    loss_rate: float = 0.0          # random drop probability at the switch
    has_switch: bool = False        # §3.6 inserts a switch between the hosts
    ecn_threshold_bytes: int = 9000 * 65  # DCTCP marking threshold (~65 jumbo frames)


@dataclass
class WorkloadConfig:
    """Application workload parameters."""

    app_write_bytes: int = constants.DEFAULT_APP_WRITE_BYTES
    app_read_bytes: int = constants.DEFAULT_APP_READ_BYTES
    rpc_size_bytes: int = kb(4)       # request == response size (§3.7)
    num_rpc_flows: int = 0            # short flows mixed with long flows (Fig 11)
    include_long_flow: bool = True    # MIXED pattern: drop the long flow to
                                      # measure short flows in isolation (Fig 11)


@dataclass
class ExperimentConfig:
    """Everything needed to run one measurement."""

    pattern: TrafficPattern = TrafficPattern.SINGLE
    num_flows: int = 1            # meaning depends on pattern (see workloads.patterns)
    duration_ns: int = msec(20)
    warmup_ns: int = msec(8)
    seed: int = 1

    opts: OptimizationConfig = field(default_factory=OptimizationConfig.all)
    nic: NicConfig = field(default_factory=NicConfig)
    host: HostConfig = field(default_factory=HostConfig)
    tcp: TcpConfig = field(default_factory=TcpConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    numa_policy: NumaPolicy = NumaPolicy.NIC_LOCAL_FIRST
    # When aRFS is off the paper pins IRQs to a core on a *different* NUMA node
    # than the application for deterministic worst-case measurements (§3.1).
    worst_case_irq_mapping: bool = True
    steering: SteeringMode = SteeringMode.RSS  # used when aRFS is off
    cost_overrides: dict = field(default_factory=dict)

    # Simulator-implementation switch, not an experiment parameter: the
    # steady-state express lane (DESIGN.md §13) routes CPU job completions
    # and chased timer deadlines through uncancellable engine entries, so
    # quiescent bulk flows stop cancelling and re-arming an RTO per ACK.
    # Results are identical by construction (enforced by the golden-digest
    # gate and the express equivalence property tests), so the flag is
    # excluded from the content-addressed cache key / canonical dict.
    # ``repro ... --no-express`` is the escape hatch.
    express: bool = field(default=True, metadata={"cache_key": False})

    # Opt-in per-stage latency tracing (DESIGN.md §12). Unlike express
    # this IS part of the cache key: traced results carry an extra payload
    # section, so they must not be served from (or poison) untraced cache
    # entries.
    trace: bool = False

    def replace(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with top-level fields overridden."""
        return dataclasses.replace(self, **kwargs)

    def to_canonical_dict(self) -> dict:
        """A canonical, JSON-stable view of every field (nested configs
        included), suitable for content-addressed hashing.

        Two configs that compare equal produce identical canonical dicts;
        changing *any* field (including ``cost_overrides`` entries and the
        seed) changes the output. Used by :mod:`repro.core.cache` to key the
        on-disk result cache.
        """
        return _canonicalize(self)

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent configurations."""
        if self.num_flows < 1:
            raise ValueError("num_flows must be >= 1")
        if self.duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        if self.warmup_ns < 0:
            raise ValueError("warmup_ns must be >= 0")
        total_cores = self.host.numa_nodes * self.host.cores_per_node
        if self.pattern in (
            TrafficPattern.ONE_TO_ONE,
            TrafficPattern.INCAST,
            TrafficPattern.OUTCAST,
            TrafficPattern.ALL_TO_ALL,
        ) and self.num_flows > total_cores:
            raise ValueError(
                f"{self.pattern.value} with {self.num_flows} flows exceeds "
                f"{total_cores} cores"
            )
        if not 0.0 <= self.link.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.link.loss_rate > 0 and not self.link.has_switch:
            raise ValueError("packet loss requires has_switch=True (drops happen there)")
        if self.nic.rx_descriptors < 1:
            raise ValueError("rx_descriptors must be >= 1")
        if self.tcp.rx_buffer_bytes < 1:
            raise ValueError("rx_buffer_bytes must be >= 1")
        if self.workload.rpc_size_bytes < 1:
            raise ValueError("rpc_size_bytes must be >= 1")
        if self.workload.num_rpc_flows < 0:
            raise ValueError("num_rpc_flows must be >= 0")


#: ``ExperimentConfig`` fields deliberately excluded from the
#: content-addressed cache key. Declared here (not just via per-field
#: ``metadata``) so the exclusion list is a single reviewable contract;
#: ``repro lint`` (the cache-key checker) enforces that this set and the
#: ``cache_key: False`` field markers stay in two-way sync and that
#: :func:`_canonicalize` actually consults it. Only simulator-implementation
#: switches whose output equivalence is gated elsewhere (golden digests +
#: equivalence property tests) belong here.
CACHE_KEY_EXCLUDED = frozenset({"express"})


def _canonicalize(value: object) -> object:
    """Recursively convert config values into JSON-stable primitives.

    Dataclasses become field-name dicts, enums their values, and dict keys are
    stringified and sorted so ``json.dumps(..., sort_keys=True)`` over the
    output is a stable canonical encoding.

    Fields are dropped from the output iff their definition carries
    ``metadata={"cache_key": False}`` *and* (for ``ExperimentConfig``) their
    name appears in :data:`CACHE_KEY_EXCLUDED` — the two declarations are
    kept in sync by ``repro lint``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        excluded = (
            CACHE_KEY_EXCLUDED if isinstance(value, ExperimentConfig) else frozenset()
        )
        return {
            f.name: _canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("cache_key", True) and f.name not in excluded
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {
            str(key): _canonicalize(val)
            for key, val in sorted(value.items(), key=lambda item: str(item[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize config value of type {type(value)!r}")
