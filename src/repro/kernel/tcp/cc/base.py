"""Congestion controller interface.

All algorithms operate in bytes. The transmit half calls the hooks below;
``cwnd_bytes`` is read before emitting each burst. Pacing algorithms (BBR)
additionally expose a pacing rate, which routes transmissions through the
qdisc pacing timer — the source of BBR's extra sender-side scheduling
overhead in Fig 13b.
"""

from __future__ import annotations


class CongestionController:
    """Base class for congestion control algorithms."""

    #: Whether transmissions must be paced through the qdisc timer (BBR).
    uses_pacing = False

    def __init__(self, mss: int, init_cwnd_segments: int) -> None:
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.cwnd_bytes = mss * init_cwnd_segments
        self.ssthresh_bytes = float("inf")
        self.in_recovery = False

    # --- hooks --------------------------------------------------------------

    def on_ack(self, acked_bytes: int, rtt_ns: int, ecn_echo: bool, now_ns: int) -> None:
        """New data acknowledged."""
        raise NotImplementedError

    def on_dup_ack(self, now_ns: int) -> None:
        """A duplicate ACK arrived (not yet a loss signal)."""

    def on_loss(self, now_ns: int) -> None:
        """Fast-retransmit-triggering loss detected."""
        raise NotImplementedError

    def on_timeout(self, now_ns: int) -> None:
        """Retransmission timeout fired."""
        self.ssthresh_bytes = max(2 * self.mss, self.cwnd_bytes // 2)
        self.cwnd_bytes = self.mss
        self.in_recovery = False

    def on_recovery_exit(self, now_ns: int) -> None:
        """All data outstanding at loss detection has been acknowledged."""
        self.in_recovery = False

    def pacing_rate_bps(self) -> float:
        """Pacing rate in bits/sec (only meaningful when ``uses_pacing``)."""
        raise NotImplementedError

    def quiescent(self) -> bool:
        """True when the window is in steady ACK-clocked growth/hold.

        Consulted by the flow express gate (:mod:`repro.kernel.tcp.express`):
        quiescent flows may route their retransmission timer through the
        engine's lazy express lane instead of eagerly re-arming a timer event
        per ACK. Purely a fast-path heuristic — both timer mechanics are
        byte-identical — so algorithms should return False whenever their
        window is mid-reaction and timer churn is likely (recovery, ECN
        backoff, probing), where eager re-arms are cheap anyway.
        """
        return not self.in_recovery

    # --- helpers ------------------------------------------------------------------

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd_bytes < self.ssthresh_bytes

    def _clamp(self) -> None:
        self.cwnd_bytes = max(self.mss, int(self.cwnd_bytes))
