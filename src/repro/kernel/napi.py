"""NAPI: IRQ-driven polling of NIC Rx queues (§2.1).

On the first frame after idle, the NIC raises an IRQ; the driver then busy
polls the queue in softirq context — up to ``netdev_budget`` frames per poll —
allocating an skb per completion, feeding GRO, and handing merged skbs to
TCP/IP processing *on the same core* (the RSS/aRFS inline model). Descriptors
are replenished from the page allocator during the poll. While frames remain
pending, polling continues without further IRQs.

Softirq jobs run at higher priority than application jobs on the same core,
so heavy receive traffic delays the application's data copies — the coupling
behind the paper's host-latency/BDP findings (§3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Tuple

from ..constants import (
    IRQ_COALESCE_FRAMES,
    IRQ_COALESCE_NS,
    IRQ_IDLE_RESET_NS,
    NAPI_BUDGET_FRAMES,
)
from ..hardware.cpu import PRIORITY_SOFTIRQ
from ..hardware.link import Frame
from .gro import GroEngine
from .skb import Skb

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.nic import RxFrameRecord, RxQueue
    from .host import Host

ChargeItems = List[Tuple[str, float]]


class NapiContext:
    """Per-Rx-queue NAPI instance."""

    def __init__(self, host: "Host", rxq: "RxQueue") -> None:
        self.host = host
        self.rxq = rxq
        self.costs = host.costs
        self.tables = host.costs.tables()
        opts = host.config.opts
        # GRO runs in software unless LRO already merged in the NIC.
        self.gro = GroEngine(self.costs, enabled=opts.tso_gro and not opts.lro)
        self.scheduled = False
        self.polls = 0
        self.irqs = 0
        self._last_activity_ns = -IRQ_IDLE_RESET_NS
        rxq.napi = self
        # Plain attribute, not a property: ``irq_core`` is fixed at RxQueue
        # construction and ``napi.core`` is read on every poll/notify.
        self.core = rxq.irq_core

    def notify(self) -> None:
        """The NIC signals new completions.

        Models adaptive interrupt moderation (Mellanox adaptive-rx): after an
        idle period the IRQ fires immediately (latency mode); under steady
        traffic it is held back until a few frames accumulate or the
        coalescing timer expires (throughput mode).
        """
        if self.scheduled:
            return
        self.scheduled = True
        engine = self.host.engine
        recently_active = engine.now - self._last_activity_ns < IRQ_IDLE_RESET_NS
        if recently_active and len(self.rxq.pending) < IRQ_COALESCE_FRAMES:
            engine.schedule(IRQ_COALESCE_NS, self._raise_irq)
        else:
            self._raise_irq()

    def _raise_irq(self) -> None:
        self.irqs += 1
        self._last_activity_ns = self.host.engine.now
        items: ChargeItems = [("handle_irq_event", self.costs.irq_cycles)]
        self.core.submit_work(
            ("softirq", self.core.core_id), items, self._poll, PRIORITY_SOFTIRQ
        )

    def _take_batch(self) -> Tuple[List["RxFrameRecord"], int]:
        rxq = self.rxq
        pending = rxq.pending
        frames = rxq.pending_frames
        if frames <= NAPI_BUDGET_FRAMES:
            # Whole queue fits in the budget (the common case): take it in
            # one bulk copy instead of a per-record drain loop.
            if not frames:
                return [], 0
            batch = list(pending)
            pending.clear()
            rxq.pending_frames = 0
            return batch, frames
        batch: List["RxFrameRecord"] = []
        frames = 0
        while pending and frames < NAPI_BUDGET_FRAMES:
            record = pending.popleft()
            batch.append(record)
            frames += record.nframes
        rxq.pending_frames -= frames
        return batch, frames

    def _poll(self) -> None:
        batch, nframes = self._take_batch()
        if not batch:
            self.scheduled = False
            return
        self.polls += 1
        core = self.core
        host = self.host
        tables = self.tables
        now = host.engine.now
        self._last_activity_ns = now

        total_pages = 0
        for record in batch:
            total_pages += record.pages
        items: ChargeItems = list(tables.napi_head(nframes, len(batch)))
        items.extend(host.iommu.unmap_charges(total_pages))
        # Replenish the ring: new pages + fresh IOMMU mappings for them.
        self.rxq.replenish(nframes)
        items.extend(host.allocator.alloc(core.key, total_pages))
        items.extend(host.iommu.map_charges(total_pages))

        deferred: List[Callable[[], None]] = []
        ack_frames: List[Frame] = []
        # skbs whose TCP processing belongs on another core (software RFS):
        # grouped per target core, forwarded as one IPI'd job at poll end.
        remote: dict = {}

        endpoints = host.endpoints
        gro_receive = self.gro.receive_record
        skb_free_item = tables.skb_free_item
        frame_to_skb = self._frame_to_skb
        deliver_skb = self._deliver_skb
        extend = items.extend
        kind_data = Frame.KIND_DATA
        kind_ack = Frame.KIND_ACK
        trace = host.trace
        # One rx_ring sample per data completion: DMA arrival (the record's
        # stamped arrival time) to this poll instant.
        ring_record = trace.stage("rx_ring").record if trace is not None else None
        if ring_record is None:
            # Untraced hot path: hand consecutive data records to GRO as one
            # run (identical per-record semantics, per-frame lookups hoisted).
            gro_run = self.gro.receive_run

            def deliver_flushed(skb: Skb) -> None:
                deliver_skb(skb, now, items, deferred, ack_frames, remote)

            i = 0
            n = len(batch)
            while i < n:
                record = batch[i]
                frame = record.frame
                kind = frame.kind
                if kind == kind_data:
                    j = i + 1
                    while j < n and batch[j].frame.kind == kind_data:
                        j += 1
                    gro_run(batch, i, j, endpoints, items,
                            frame_to_skb, deliver_flushed)
                    i = j
                    continue
                endpoint = endpoints.get(frame.flow_id)
                if endpoint is not None:  # else: stray, torn-down flow
                    if kind == kind_ack:
                        items.append(skb_free_item)
                        endpoint.on_ack_frame(frame.ack, core, items, deferred)
                    elif kind == "probe":
                        endpoint.on_probe_frame(items, ack_frames)
                i += 1
        else:
            for record in batch:
                frame = record.frame
                endpoint = endpoints.get(frame.flow_id)
                if endpoint is None:
                    continue  # stray frame for a torn-down flow
                kind = frame.kind
                if kind == kind_data:
                    ring_record(now - record.arrival_ns)
                    gro_items, completed = gro_receive(record, frame_to_skb)
                    extend(gro_items)
                    for done_skb in completed:
                        deliver_skb(done_skb, now, items, deferred, ack_frames, remote)
                elif kind == kind_ack:
                    items.append(skb_free_item)
                    endpoint.on_ack_frame(frame.ack, core, items, deferred)
                elif kind == "probe":
                    endpoint.on_probe_frame(items, ack_frames)

        flush_items, flushed = self.gro.flush_all()
        items.extend(flush_items)
        for done_skb in flushed:
            self._deliver_skb(done_skb, now, items, deferred, ack_frames, remote)

        def done() -> None:
            for action in deferred:
                action()
            if ack_frames:
                self.host.nic.transmit(ack_frames)
            for target_core, skbs in remote.items():
                self._forward_to_core(target_core, skbs)
            if self.rxq.pending:
                # Budget exhausted with work left: repoll without a new IRQ.
                self.core.submit_work(
                    ("softirq", self.core.core_id),
                    [("net_rx_action", self.costs.napi_poll_overhead * 0.3)],
                    self._poll,
                    PRIORITY_SOFTIRQ,
                )
            else:
                self.scheduled = False

        core.submit_work(("softirq", core.core_id), items, done, PRIORITY_SOFTIRQ)

    def _frame_to_skb(self, record: "RxFrameRecord") -> Skb:
        # Fields are assigned directly (bypassing Skb.__init__): this runs
        # once per received wire frame and is the hottest allocation site.
        frame = record.frame
        payload = frame.payload_bytes
        # trace_ns is deliberately left unset: it is only read under
        # config.trace, and that path stamps it before any read.
        skb = Skb.__new__(Skb)  # repro-lint: allow[slots-incomplete-new] trace_ns lazily stamped on the trace path
        skb.flow_id = frame.flow_id
        skb.seq = frame.seq
        skb.payload_bytes = payload
        skb.nframes = record.nframes
        skb.pages = record.pages
        skb.page_node = record.page_node
        skb.regions = [(record.region_id, payload)]
        skb.napi_ns = record.arrival_ns
        skb.is_retransmit = False
        skb.ecn = frame.ecn_marked
        return skb

    def _deliver_skb(
        self,
        skb: Skb,
        now: int,
        items: ChargeItems,
        deferred: List[Callable[[], None]],
        ack_frames: List[Frame],
        remote: dict,
    ) -> None:
        skb.napi_ns = now
        endpoint = self.host.endpoints.get(skb.flow_id)
        if endpoint is None:
            return
        self.host.metrics.record_rx_skb(self.host.name, skb.payload_bytes)
        if endpoint.softirq_core is not self.core:
            # Software steering (RPS/RFS): enqueue onto the target core's
            # backlog and IPI it; the driver-side cost lands here.
            items.append(
                ("net_rx_action", self.costs.rps_backlog_enqueue_cycles)
            )
            remote.setdefault(endpoint.softirq_core, []).append((endpoint, skb))
            return
        endpoint.on_data_skb(skb, self.core, items, deferred, ack_frames)

    def _forward_to_core(self, target_core, pairs) -> None:
        """Run the TCP half of a poll batch on the steering target core."""
        items: ChargeItems = [("handle_irq_event", self.costs.irq_cycles * 0.5)]
        deferred: List[Callable[[], None]] = []
        ack_frames: List[Frame] = []
        for endpoint, skb in pairs:
            endpoint.on_data_skb(skb, target_core, items, deferred, ack_frames)

        def done() -> None:
            for action in deferred:
                action()
            if ack_frames:
                self.host.nic.transmit(ack_frames)

        target_core.submit_work(
            ("softirq", target_core.core_id), items, done, PRIORITY_SOFTIRQ
        )
