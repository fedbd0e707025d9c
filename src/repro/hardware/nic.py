"""NIC model: Rx queues with descriptors, DMA (with DDIO), TSO/LRO offloads.

The receive path follows §2.1: each Rx queue owns a pool of descriptors, each
backed by enough memory for one MTU-sized frame. Arriving frames consume a
descriptor and are DMA'd either to DRAM or — when DDIO applies (NIC-local
NUMA target) — into the DCA slice of the L3. The driver replenishes
descriptors during NAPI polling. When no descriptor is available the frame is
dropped at the NIC.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence

from ..constants import MAX_GSO_SIZE, PAGE_BYTES
from ..units import transmission_time_ns
from .link import Frame

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine
    from .cache import DcaRegion
    from .cpu import Core
    from .link import Link
    from .steering import SteeringEngine


class RxFrameRecord:
    """A received frame sitting in an Rx queue awaiting NAPI processing."""

    __slots__ = ("frame", "region_id", "page_node", "pages", "arrival_ns", "nframes")

    def __init__(
        self,
        frame: Frame,
        region_id: int,
        page_node: int,
        pages: int,
        arrival_ns: int,
        nframes: int = 1,
    ) -> None:
        self.frame = frame
        self.region_id = region_id
        self.page_node = page_node
        self.pages = pages
        self.arrival_ns = arrival_ns
        self.nframes = nframes  # >1 when LRO merged several wire frames


class RxQueue:
    """One NIC Rx queue: descriptors, pending completions, bound IRQ core."""

    def __init__(self, nic: "Nic", queue_id: int, irq_core: "Core", descriptors: int) -> None:
        self.nic = nic
        self.queue_id = queue_id
        self.irq_core = irq_core
        self.page_node = irq_core.numa_node  # driver allocates DMA pages locally
        self.capacity = descriptors
        self.avail_descriptors = descriptors
        self.pending: Deque[RxFrameRecord] = deque()
        #: Wire frames represented by ``pending`` — sum of ``record.nframes``
        #: (maintained by ``_rx_ingest``/``_take_batch``) so a whole-queue
        #: NAPI take can skip the per-record drain loop.
        self.pending_frames = 0
        self.napi = None  # wired by the host (kernel.napi.NapiContext)
        self.dropped_no_descriptor = 0
        self.dropped_no_descriptor_bytes = 0
        self.active = False  # has this queue ever received traffic?

    def replenish(self, count: int) -> None:
        """Return ``count`` descriptors to the NIC (done during NAPI polling)."""
        self.avail_descriptors = min(self.capacity, self.avail_descriptors + count)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RxQueue {self.queue_id} irq_core={self.irq_core.core_id} "
            f"avail={self.avail_descriptors}/{self.capacity}>"
        )


class Nic:
    """The host NIC."""

    def __init__(
        self,
        engine: "Engine",
        name: str,
        numa_node: int,
        mtu: int,
        tso: bool,
        lro: bool,
        rx_descriptors: int,
        steering: "SteeringEngine",
        dca: Optional["DcaRegion"],
    ) -> None:
        self.engine = engine
        self.name = name
        self.numa_node = numa_node
        self.mtu = mtu
        self.tso = tso
        self.lro = lro
        self.rx_descriptors = rx_descriptors
        self.steering = steering
        self.dca = dca
        self.queues: List[RxQueue] = []
        self.tx_link: Optional["Link"] = None
        self._deliver: Optional[Callable[[List[Frame]], None]] = None
        self._tx_flows: Dict[int, Deque[Frame]] = {}
        self._tx_drain_pending = False
        # SideTrace of this NIC's host (None unless tracing), wired by Host.
        self.trace = None
        self._region_counter = 0
        # statistics
        self.rx_frames = 0
        self.tx_frames = 0
        self.rx_bytes = 0
        self.tx_bytes = 0

    # --- wiring ---------------------------------------------------------------

    def add_rx_queue(self, irq_core: "Core") -> RxQueue:
        """Create an Rx queue whose IRQs land on ``irq_core``."""
        queue = RxQueue(self, len(self.queues), irq_core, self.rx_descriptors)
        self.queues.append(queue)
        self.steering.register_queue(queue)
        self._update_dca_footprint()
        return queue

    def attach_tx(self, link: "Link", deliver: Callable[[List[Frame]], None]) -> None:
        """Wire the egress link and the peer's ingress handler."""
        self.tx_link = link
        self._deliver = deliver

    def _update_dca_footprint(self) -> None:
        """Descriptor footprint that dilutes DCA capacity (§3.1).

        Only *active* queues whose DMA target is the NIC-local node interact
        with the DCA slice: descriptors of idle rings are posted but never
        written, so they add no address diversity to DDIO's working set.
        """
        if self.dca is None:
            return
        local_desc = sum(
            q.capacity
            for q in self.queues
            if q.active and q.page_node == self.dca.node_id
        )
        self.dca.set_descriptor_footprint(local_desc * self.mtu)

    # --- transmit side ----------------------------------------------------------------

    #: Frames per wire batch (keeps event counts low without affecting rates).
    TX_BATCH_FRAMES = 64
    #: Frames pulled per flow per round-robin round (hardware queue quantum).
    TX_RR_QUANTUM_FRAMES = 2

    def transmit(self, frames: Sequence[Frame]) -> None:
        """Queue ``frames`` for transmission.

        The NIC schedules its send queues round-robin (one frame per flow
        per round), so frames from concurrently-active flows *interleave on
        the wire* — the reason receivers see few back-to-back frames per
        flow when many flows share a host, which in turn starves GRO of
        aggregation opportunities (§3.5).
        """
        if self.tx_link is None:
            raise RuntimeError("NIC has no Tx link attached")
        if self.trace is not None:
            # Doorbell stamp: ``transmit`` runs inside the driver job's
            # completion (or a retransmit event), at the doorbell instant.
            doorbell = self.engine.now
            kind_data = Frame.KIND_DATA
            for frame in frames:
                if frame.kind == kind_data:
                    frame.trace_ns = doorbell
        for frame in frames:
            queue = self._tx_flows.get(frame.flow_id)
            if queue is None:
                queue = self._tx_flows[frame.flow_id] = deque()
            queue.append(frame)
        if not self._tx_drain_pending:
            self._tx_drain_pending = True
            # Defer to the end of the current event so bursts queued by other
            # flows in the same instant join the round-robin interleave.
            self.engine.schedule(0, self._tx_drain)

    def _compose_tx_batch(self) -> List[Frame]:
        """Pop the next wire batch from the per-flow queues (round-robin)."""
        batch: List[Frame] = []
        if len(self._tx_flows) == 1:
            # Single active flow: round-robin degenerates to draining the one
            # queue in order, so skip the per-round key snapshots.
            (flow_id, queue), = self._tx_flows.items()
            take = min(self.TX_BATCH_FRAMES, len(queue))
            for _ in range(take):
                batch.append(queue.popleft())
            if not queue:
                del self._tx_flows[flow_id]
        while self._tx_flows and len(batch) < self.TX_BATCH_FRAMES:
            # one round: a small quantum of frames from every active flow
            for flow_id in list(self._tx_flows.keys()):
                queue = self._tx_flows[flow_id]
                for _ in range(self.TX_RR_QUANTUM_FRAMES):
                    batch.append(queue.popleft())
                    if not queue:
                        del self._tx_flows[flow_id]
                        break
                if len(batch) >= self.TX_BATCH_FRAMES:
                    break
        return batch

    def _tx_drain(self) -> None:
        # Pace against the wire: keep at most ~2 batches serialized ahead so
        # frames from flows that become active meanwhile join the round-robin
        # interleave instead of queueing behind whole prior bursts.
        max_ahead = 2 * self.TX_BATCH_FRAMES * self.mtu
        backlog = self.tx_link.backlog_bytes()
        if backlog > max_ahead:
            delay = transmission_time_ns(backlog - max_ahead, self.tx_link.bandwidth_bps)
            self.engine.schedule(delay, self._tx_drain)
            return
        batch = self._compose_tx_batch()
        if not batch:
            self._tx_drain_pending = False
            return
        self.tx_frames += len(batch)
        batch_bytes = sum(f.wire_bytes for f in batch)
        self.tx_bytes += batch_bytes
        self.tx_link.transmit(batch, self._deliver)
        if self._tx_flows:
            # Pace the next batch at roughly the wire drain rate so flows
            # arriving meanwhile join the interleave.
            delay = transmission_time_ns(batch_bytes, self.tx_link.bandwidth_bps)
            self.engine.schedule(delay, self._tx_drain)
        else:
            self._tx_drain_pending = False

    # --- receive side -------------------------------------------------------------------

    def handle_rx(self, frames: List[Frame]) -> None:
        """Frames arriving from the wire: steer, DMA, and raise IRQs."""
        touched = self._rx_ingest(frames, self.engine.now)
        for queue in touched.values():
            if queue.napi is not None:
                queue.napi.notify()

    def _rx_ingest(self, frames: List[Frame], now: int) -> Dict[int, RxQueue]:
        """Steer and DMA ``frames`` that arrived at ``now``; return the
        touched queues (IRQ notification is the caller's job)."""
        touched: Dict[int, RxQueue] = {}
        queue_for = self.steering.queue_for
        lro = self.lro
        dca = self.dca
        trace = self.trace
        rx_wire_record = trace.stage("wire").record if trace is not None else None
        region_counter = self._region_counter
        rx_frames = 0
        rx_bytes = 0
        kind_data = Frame.KIND_DATA
        dca_write = dca.dma_write if dca is not None else None
        dca_node = dca.node_id if dca is not None else -1
        # Steering is fixed for the duration of one ingest (aRFS reprograms
        # between events, never mid-batch) and wire batches are runs of
        # same-flow frames, so one (flow -> queue) memo elides most lookups.
        last_flow = -1
        last_queue = None
        for frame in frames:
            flow_id = frame.flow_id
            if flow_id == last_flow:
                queue = last_queue
            else:
                queue = queue_for(flow_id)
                last_flow = flow_id
                last_queue = queue
                if not queue.active:
                    queue.active = True
                    self._update_dca_footprint()
            if queue.avail_descriptors <= 0:
                queue.dropped_no_descriptor += 1
                queue.dropped_no_descriptor_bytes += frame.wire_bytes
                continue
            queue.avail_descriptors -= 1
            queue.pending_frames += 1
            rx_frames += 1
            rx_bytes += frame.wire_bytes
            is_data = frame.kind == kind_data
            if rx_wire_record is not None and frame.trace_ns is not None:
                rx_wire_record(now - frame.trace_ns)
                frame.trace_ns = None

            if lro and is_data and self._try_lro_merge(queue, frame):
                touched[queue.queue_id] = queue
                continue

            region_counter += 1
            region_id = region_counter
            payload = frame.payload_bytes
            pages = (payload + PAGE_BYTES - 1) // PAGE_BYTES if payload else 0
            if (
                dca_write is not None
                and is_data
                and payload
                and queue.page_node == dca_node
            ):
                # DDIO pushes the DMA into the NIC-local L3's DCA slice.
                dca_write(region_id, payload)
            # direct field assignment (bypassing __init__): per-frame hot path
            record = RxFrameRecord.__new__(RxFrameRecord)
            record.frame = frame
            record.region_id = region_id
            record.page_node = queue.page_node
            record.pages = pages
            record.arrival_ns = now
            record.nframes = 1
            queue.pending.append(record)
            touched[queue.queue_id] = queue
        self._region_counter = region_counter
        self.rx_frames += rx_frames
        self.rx_bytes += rx_bytes
        return touched

    def _try_lro_merge(self, queue: RxQueue, frame: Frame) -> bool:
        """NIC-side receive merge (LRO): extend the newest pending record when
        the frame continues the same flow in-sequence. Burns no host cycles
        (footnote 3: LRO beats GRO on CPU but is often unusable in practice).
        """
        if not queue.pending:
            return False
        tail = queue.pending[-1]
        prev = tail.frame
        if (
            prev.kind != Frame.KIND_DATA
            or prev.flow_id != frame.flow_id
            or prev.seq + prev.payload_bytes != frame.seq
            or prev.payload_bytes + frame.payload_bytes > MAX_GSO_SIZE
        ):
            return False
        prev.payload_bytes += frame.payload_bytes
        prev.wire_bytes += frame.wire_bytes
        tail.pages = (prev.payload_bytes + PAGE_BYTES - 1) // PAGE_BYTES
        tail.nframes += 1
        if self.dca is not None and queue.page_node == self.dca.node_id:
            self.dca.dma_write(tail.region_id, frame.payload_bytes)
        return True

    # --- queries ------------------------------------------------------------------------------

    def total_rx_drops(self) -> int:
        return sum(q.dropped_no_descriptor for q in self.queues)

    def total_rx_drop_bytes(self) -> int:
        return sum(q.dropped_no_descriptor_bytes for q in self.queues)
