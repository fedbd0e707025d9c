"""Steady-state express gate: per-flow quiescence for the engine fast lane.

A bulk flow in steady state is *ACK-clocked*: every round is the same dance
of transmit → completion → ACK → window slide → transmit, and the only timer
activity is the retransmission timer being cancelled and re-armed once per
ACK without ever firing. That cancel/re-arm churn is pure engine overhead —
tens of thousands of engine operations per run that exist only to move a
deadline that keeps receding.

``FlowExpressGate`` decides, per arm, whether a flow is quiescent enough to
route its RTO through the engine's express lane lazily (see DESIGN.md §13):

* quiescent — the endpoint records a *logical* deadline and reserves the
  serial an eager arm would have consumed, keeping at most one lane
  chase entry live; stale entries fire as no-ops and re-chase.
* perturbed — loss recovery in progress, dupacks outstanding, a timeout
  backoff chain active, or the congestion controller mid-reaction — the
  endpoint falls back to the classic eager timer event, whose cost is noise
  next to the recovery work itself.

Both mechanics are byte-identical by construction: the lazy path consumes
exactly one engine serial per arm (like the eager ``schedule``) and a real
timeout fires at the same virtual instant, ordered by the serial of the
*last* arm — exactly where the eager event would have sat.
The golden-digest suite and ``tests/property/test_express_equivalence.py``
enforce this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .endpoint import TcpEndpoint


class FlowExpressGate:
    """Quiescence predicate for one flow's express-lane eligibility."""

    __slots__ = ("endpoint", "enabled")

    def __init__(self, endpoint: "TcpEndpoint", enabled: bool) -> None:
        self.endpoint = endpoint
        #: Master switch: ``ExperimentConfig.express`` (``--no-express``
        #: pins every flow to the eager segment path).
        self.enabled = enabled

    def quiescent(self) -> bool:
        """True when the flow's next RTO arm may ride the express lane.

        Checked at every arm, so a perturbation mid-round (dupack, loss,
        backoff) aborts the lazy mechanics on the very next arm — the flow
        is back on eager timer events before any recovery timer matters.
        """
        if not self.enabled:
            return False
        ep = self.endpoint
        return (
            ep._recovery_point < 0      # no loss-recovery episode open
            and ep._dupacks == 0        # no reordering/loss signal brewing
            and ep._rto_backoff == 1    # no timeout backoff chain
            and ep.cc.quiescent()       # window neither probing nor reacting
        )
