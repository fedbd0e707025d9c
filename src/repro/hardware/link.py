"""Full-duplex 100Gbps link with optional in-path switch (§3.6).

One :class:`Link` instance models one direction. Frames are serialized at
link rate; when a switch is configured it forwards with a small delay and can
drop frames uniformly at random (the paper programs its switch to do exactly
this) and ECN-marks frames when the sender-side backlog exceeds a threshold
(used by DCTCP).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from ..sim.engine import Engine
from ..units import transmission_time_ns


class Frame:
    """One on-the-wire Ethernet frame (data segment or pure ACK)."""

    __slots__ = (
        "flow_id",
        "kind",
        "seq",
        "payload_bytes",
        "wire_bytes",
        "ack",
        "ecn_marked",
        "trace_ns",
    )

    KIND_DATA = "data"
    KIND_ACK = "ack"

    def __init__(
        self,
        flow_id: int,
        kind: str,
        seq: int,
        payload_bytes: int,
        wire_bytes: int,
        ack: Optional[object] = None,
    ) -> None:
        self.flow_id = flow_id
        self.kind = kind
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.wire_bytes = wire_bytes
        self.ack = ack
        self.ecn_marked = False
        # Tracing stamp slot, reused along the path: NIC doorbell time while
        # queued for serialization, wire-exit time while in flight. None on
        # untraced runs and on ACK frames.
        self.trace_ns = None

    @property
    def is_data(self) -> bool:
        return self.kind == Frame.KIND_DATA

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Frame flow={self.flow_id} {self.kind} seq={self.seq} "
            f"len={self.payload_bytes}>"
        )


class Link:
    """One direction of the host-to-host path."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        bandwidth_bps: float,
        propagation_ns: int,
        rng: random.Random,
        loss_rate: float = 0.0,
        has_switch: bool = False,
        switch_delay_ns: int = 0,
        ecn_threshold_bytes: int = 0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.engine = engine
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.rng = rng
        self.loss_rate = loss_rate
        self.has_switch = has_switch
        self.switch_delay_ns = switch_delay_ns
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._free_at = 0
        #: Per-link serialization-delay memo {wire_bytes: ns}. The global
        #: memo in :mod:`repro.units` keys on (bytes, rate); with the rate
        #: fixed per link this drops the tuple build from the per-frame loop.
        self._tt_cache: dict = {}
        # SideTrace of the *transmitting* host (None unless tracing): the
        # tx_wire stage (doorbell -> last bit out) is charged to the sender.
        self.trace = None
        # statistics — together they satisfy the wire-conservation identity
        # ``sent == dropped + in_flight + delivered`` (frames and bytes),
        # checked by the conservation auditor.
        self.frames_sent = 0
        self.frames_dropped = 0
        self.frames_marked = 0
        self.bytes_sent = 0
        self.bytes_dropped = 0
        self.frames_in_flight = 0
        self.bytes_in_flight = 0
        self.frames_delivered = 0
        self.bytes_delivered = 0

    def backlog_bytes(self) -> int:
        """Bytes queued for serialization right now (virtual-output queue)."""
        pending_ns = max(0, self._free_at - self.engine.now)
        return int(pending_ns * self.bandwidth_bps / 8e9)

    def transmit(self, frames: Sequence[Frame], deliver: Callable[[List[Frame]], None]) -> None:
        """Serialize ``frames`` and deliver survivors to the far end.

        The whole burst is delivered in one event at the time the *last* frame
        finishes serialization (plus propagation and switch forwarding); this
        batches what would otherwise be one event per MTU frame without
        changing steady-state rates. Updates the sent / dropped / marked
        counters and advances ``_free_at``, drawing switch loss and ECN
        decisions in frame order.
        """
        if not frames:
            return
        start = self.engine.now
        t = max(start, self._free_at)
        bandwidth = self.bandwidth_bps
        drop = self.has_switch and self.loss_rate > 0
        mark = self.has_switch and self.ecn_threshold_bytes > 0
        # Tracing stamps use the running per-frame finish time ``t``: the
        # moment each frame's last bit leaves the wire.
        trace = self.trace
        wire_record = trace.stage("tx_wire").record if trace is not None else None
        tt_cache = self._tt_cache
        tt_get = tt_cache.get
        if not drop and not mark and wire_record is None:
            # Fast path (lossless unswitched untraced link — the default
            # testbed): every frame survives and only the *final* clock
            # matters. Per-frame delays are integers, so summing them first
            # is bit-exact with the sequential accumulation below.
            bytes_sent = 0
            dt_sum = 0
            for frame in frames:
                wire_bytes = frame.wire_bytes
                dt = tt_get(wire_bytes)
                if dt is None:
                    dt = tt_cache[wire_bytes] = transmission_time_ns(
                        wire_bytes, bandwidth
                    )
                dt_sum += dt
                bytes_sent += wire_bytes
            t += dt_sum
            nsent = len(frames)
            delivered = list(frames)
            delivered_bytes = bytes_sent
        else:
            delivered = []
            append = delivered.append
            nsent = 0
            bytes_sent = 0
            delivered_bytes = 0
            for frame in frames:
                wire_bytes = frame.wire_bytes
                dt = tt_get(wire_bytes)
                if dt is None:
                    dt = tt_cache[wire_bytes] = transmission_time_ns(
                        wire_bytes, bandwidth
                    )
                t += dt
                nsent += 1
                bytes_sent += wire_bytes
                if drop and self.rng.random() < self.loss_rate:
                    self.frames_dropped += 1
                    self.bytes_dropped += wire_bytes
                    continue
                if mark:
                    # queue this frame observed = everything serialized ahead of it
                    queued_bytes = int((t - start) * bandwidth / 8e9)
                    if queued_bytes > self.ecn_threshold_bytes:
                        frame.ecn_marked = True
                        self.frames_marked += 1
                if wire_record is not None and frame.trace_ns is not None:
                    wire_record(t - frame.trace_ns)
                    frame.trace_ns = t  # stamp wire exit for the Rx-side stage
                append(frame)
                delivered_bytes += wire_bytes
        self.frames_sent += nsent
        self.bytes_sent += bytes_sent
        self._free_at = t
        if delivered:
            self.frames_in_flight += len(delivered)
            self.bytes_in_flight += delivered_bytes
            # Arrival at the far end: last bit out, plus propagation and
            # switch forwarding.
            arrival = t + self.propagation_ns
            if self.has_switch:
                arrival += self.switch_delay_ns
            self.engine.schedule_at(
                arrival, self._deliver_batch, deliver, delivered, delivered_bytes
            )

    def _deliver_batch(
        self,
        deliver: Callable[[List[Frame]], None],
        frames: List[Frame],
        batch_bytes: int,
    ) -> None:
        # Count before handing off: the receiving NIC may mutate frames (LRO
        # grows wire_bytes of merged frames), so byte totals are only correct
        # when taken at arrival time.
        self.frames_in_flight -= len(frames)
        self.bytes_in_flight -= batch_bytes
        self.frames_delivered += len(frames)
        self.bytes_delivered += batch_bytes
        deliver(frames)
