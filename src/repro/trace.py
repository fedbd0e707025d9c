"""Per-stage latency tracing through the simulated stack (DESIGN.md §12).

The paper attributes *cycles* to stack layers (Table 1); this module
attributes *latency*. With ``ExperimentConfig.trace`` on, every payload unit
is timestamped at the §2.1 stage boundaries — app ``write()``, TCP transmit,
GSO/qdisc/driver, NIC Tx, wire, NIC Rx DMA, IRQ/NAPI poll, GRO + TCP receive,
socket queue, and the single data copy into userspace — and each interval
lands in a fixed log2-bucket streaming histogram. The histograms have no
reservoir cap (a 64-bucket vector absorbs any sample count exactly), merge by
elementwise addition (associative, so ``run_many`` worker fan-out composes in
any order), and round-trip losslessly through the result export.

Stamping rules:

* ``engine.now`` read inside a CPU job's ``done()`` callback, or in a syscall
  path, is the job's finish time (or the syscall instant).
* ``Link.transmit`` serializes a whole batch in one call, so its hook stamps
  each frame with the running per-frame finish time, not ``engine.now``.

Untraced runs are untouched (property-tested): every hook is guarded by one
``is not None`` attribute check on a reference that is ``None`` unless
tracing was requested.

The internal ``e2e`` stream repeats the copy-latency measurement (NAPI poll
instant to copy start, per skb) inside the trace so the auditor can check the
telescoping identity ``rx_softirq.total + rx_sockq.total == e2e.total``
sample-exactly, and cross-check ``e2e`` against the reservoir-backed
copy-latency metric.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Fixed bucket count: bucket 0 holds exactly-zero deltas, bucket b >= 1
#: covers [2^(b-1), 2^b - 1] ns. 63 doubling buckets reach ~292 years.
NUM_BUCKETS = 64

#: The stage taxonomy, in data-path order: (key, unit, human label). The
#: ``unit`` names what one recorded sample corresponds to — stages measure
#: different granularities (a burst fans out into frames, GRO folds frames
#: back into skbs), so per-stage counts legitimately differ.
STAGES: Tuple[Tuple[str, str, str], ...] = (
    ("tx_queue", "burst", "app write() -> TCP transmit"),
    ("tx_xmit", "burst", "TCP transmit -> NIC doorbell (GSO/qdisc/driver)"),
    ("tx_wire", "frame", "NIC doorbell -> last bit serialized"),
    ("wire", "frame", "wire exit -> NIC Rx DMA"),
    ("rx_ring", "cmpl", "NIC Rx DMA -> NAPI poll (IRQ + ring wait)"),
    ("rx_softirq", "skb", "NAPI poll -> socket enqueue (GRO + TCP rx)"),
    ("rx_sockq", "skb", "socket enqueue -> recv copy start"),
    ("rx_copy", "recv", "recv copy start -> data visible to app"),
    ("e2e", "skb", "NAPI poll -> recv copy start (end-to-end)"),
)

STAGE_KEYS: Tuple[str, ...] = tuple(key for key, _, _ in STAGES)
STAGE_UNITS: Dict[str, str] = {key: unit for key, unit, _ in STAGES}
STAGE_LABELS: Dict[str, str] = {key: label for key, _, label in STAGES}


class StageHistogram:
    """Streaming log2 histogram of non-negative nanosecond deltas.

    Exact count / total / max plus a fixed 64-bucket population vector:
    unbounded sample streams aggregate in O(1) memory with no reservoir (and
    hence no sampling noise in the sum identity the auditor checks).
    """

    __slots__ = ("count", "total_ns", "max_ns", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0
        self.buckets = [0] * NUM_BUCKETS

    def record(self, delta_ns: int) -> None:
        """Record one interval. Bucket index is ``delta.bit_length()``:
        0 -> bucket 0, [2^(b-1), 2^b - 1] -> bucket b."""
        self.buckets[delta_ns.bit_length()] += 1
        self.count += 1
        self.total_ns += delta_ns
        if delta_ns > self.max_ns:
            self.max_ns = delta_ns

    def clear(self) -> None:
        """Zero in place (warmup reset) — callers holding a reference to this
        histogram keep recording into the same object."""
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0
        for index in range(NUM_BUCKETS):
            self.buckets[index] = 0

    def merge(self, other: "StageHistogram") -> None:
        """Fold ``other`` into this histogram (elementwise, associative)."""
        self.count += other.count
        self.total_ns += other.total_ns
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns
        buckets = self.buckets
        for index, population in enumerate(other.buckets):
            buckets[index] += population

    @property
    def avg_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated p-quantile: walk the buckets to the target rank, then
        interpolate linearly inside the landing bucket. Exact for bucket 0
        (all-zero deltas); elsewhere accurate to the bucket's factor-of-two
        width, which is all a log2 sketch can promise."""
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        accumulated = 0
        for index, population in enumerate(self.buckets):
            if population == 0:
                continue
            if accumulated + population >= target:
                if index == 0:
                    return 0.0
                low = 1 << (index - 1)
                high = (1 << index) - 1
                inside = (target - accumulated) / population
                # The landing bucket's upper edge can exceed the exact max;
                # never report a quantile above an observed value.
                return min(low + (high - low) * inside, float(self.max_ns))
            accumulated += population
        return float(self.max_ns)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "max_ns": self.max_ns,
            # sparse encoding: only populated buckets, keyed by index
            "buckets": {
                str(index): population
                for index, population in enumerate(self.buckets)
                if population
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageHistogram":
        hist = cls()
        hist.count = payload["count"]
        hist.total_ns = payload["total_ns"]
        hist.max_ns = payload["max_ns"]
        for index, population in payload["buckets"].items():
            hist.buckets[int(index)] = population
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StageHistogram):
            return NotImplemented
        return (
            self.count == other.count
            and self.total_ns == other.total_ns
            and self.max_ns == other.max_ns
            and self.buckets == other.buckets
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StageHistogram n={self.count} avg={self.avg_ns:.0f}ns "
            f"max={self.max_ns}ns>"
        )


class SideTrace:
    """One host's per-stage histograms. Hot-path recorders fetch a stage's
    histogram once via :meth:`stage` and call ``record`` on it directly;
    :meth:`clear` zeroes in place so those references survive the warmup
    reset."""

    __slots__ = ("host", "stages")

    def __init__(self, host: str) -> None:
        self.host = host
        self.stages: Dict[str, StageHistogram] = {
            key: StageHistogram() for key in STAGE_KEYS
        }

    def stage(self, key: str) -> StageHistogram:
        return self.stages[key]

    def clear(self) -> None:
        for hist in self.stages.values():
            hist.clear()


class TraceHub:
    """Shared trace sink for one experiment (one :class:`SideTrace` per
    host), mirroring how :class:`~repro.core.metrics.MetricsHub` is shared."""

    def __init__(self) -> None:
        self.sides: Dict[str, SideTrace] = {}

    def side(self, host: str) -> SideTrace:
        side = self.sides.get(host)
        if side is None:
            side = self.sides[host] = SideTrace(host)
        return side

    def reset(self) -> None:
        """Discard warmup recordings (in place: recorder references held by
        the NIC/link/endpoints stay live)."""
        for side in self.sides.values():
            side.clear()

    def report(self) -> "TraceReport":
        """Snapshot every histogram into a detached, serializable report."""
        hosts: Dict[str, Dict[str, StageHistogram]] = {}
        for name, side in self.sides.items():
            hosts[name] = {
                key: StageHistogram.from_dict(hist.to_dict())
                for key, hist in side.stages.items()
            }
        return TraceReport(hosts)


class TraceReport:
    """Serializable per-stage latency breakdown of one (or many, merged)
    traced runs: ``hosts[host][stage] -> StageHistogram``."""

    __slots__ = ("hosts",)

    def __init__(
        self, hosts: Optional[Dict[str, Dict[str, StageHistogram]]] = None
    ) -> None:
        self.hosts: Dict[str, Dict[str, StageHistogram]] = hosts or {}

    def to_dict(self) -> dict:
        return {
            host: {key: hist.to_dict() for key, hist in stages.items()}
            for host, stages in self.hosts.items()
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceReport":
        return cls(
            {
                host: {
                    key: StageHistogram.from_dict(entry)
                    for key, entry in stages.items()
                }
                for host, stages in payload.items()
            }
        )

    @classmethod
    def merge(cls, reports: Iterable["TraceReport"]) -> "TraceReport":
        """Combine reports by summing histograms (associative and
        commutative, so worker fan-out order does not matter)."""
        merged = cls()
        for report in reports:
            for host, stages in report.hosts.items():
                into = merged.hosts.setdefault(host, {})
                for key, hist in stages.items():
                    target = into.get(key)
                    if target is None:
                        into[key] = target = StageHistogram()
                    target.merge(hist)
        return merged

    def check_identity(self) -> Tuple[int, List[str]]:
        """Verify the telescoping sum per host: the receive-side interval
        stages recorded per skb must add up — count-exactly and
        nanosecond-exactly — to the end-to-end stream.

        Returns ``(checks_run, violations)``; empty violations means the
        identity holds. Usable on live reports and on round-tripped ones
        (the CLI re-checks after the worker/cache boundary).
        """
        checks = 0
        violations: List[str] = []
        for host in sorted(self.hosts):
            stages = self.hosts[host]
            softirq = stages.get("rx_softirq")
            sockq = stages.get("rx_sockq")
            e2e = stages.get("e2e")
            if softirq is None or sockq is None or e2e is None:
                continue
            checks += 1
            if not (softirq.count == sockq.count == e2e.count):
                violations.append(
                    f"{host}: stage sample counts diverge "
                    f"(rx_softirq={softirq.count} rx_sockq={sockq.count} "
                    f"e2e={e2e.count})"
                )
            checks += 1
            if softirq.total_ns + sockq.total_ns != e2e.total_ns:
                violations.append(
                    f"{host}: rx_softirq.total + rx_sockq.total != e2e.total "
                    f"({softirq.total_ns} + {sockq.total_ns} != {e2e.total_ns})"
                )
        return checks, violations

    def to_table(self, title: str):
        """Render the per-stage breakdown as a figures-style table
        (microseconds; stages in data-path order, hosts alphabetical)."""
        from .core.report import Table

        table = Table(
            title=title,
            columns=[
                "host", "stage", "unit", "count",
                "avg_us", "p50_us", "p99_us", "max_us",
            ],
        )
        for host in sorted(self.hosts):
            stages = self.hosts[host]
            for key in STAGE_KEYS:
                hist = stages.get(key)
                if hist is None or hist.count == 0:
                    continue
                table.add_row(
                    host,
                    f"{key}: {STAGE_LABELS[key]}",
                    STAGE_UNITS[key],
                    hist.count,
                    hist.avg_ns / 1e3,
                    hist.percentile(0.50) / 1e3,
                    hist.percentile(0.99) / 1e3,
                    hist.max_ns / 1e3,
                )
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceReport):
            return NotImplemented
        return self.hosts == other.hosts

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TraceReport hosts={sorted(self.hosts)}>"
