"""Accounting messages: RPN → RDN resource-usage feedback (§3.5).

"Each accounting message from RPN includes the total and per-subscriber
resource usage on that RPN in the previous accounting cycle."  The
total is the sum of the per-subscriber usages the message reports (every
charge on a node lands in some site's subtree).  This reproduction
additionally carries per-subscriber completion counts, which
lets the RDN replace exactly the right dispatch-time predictions with
measured usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.grps import ResourceVector


@dataclass(frozen=True)
class RPNUsageReport:
    """One subscriber's usage on one RPN during one accounting cycle."""

    usage: ResourceVector
    completed: int

    def per_request(self) -> ResourceVector:
        """Average usage of one completed request in this cycle."""
        if self.completed <= 0:
            return ResourceVector.ZERO
        return self.usage.scaled(1.0 / self.completed)


@dataclass
class AccountingMessage:
    """The periodic feedback message from one RPN."""

    rpn_id: str
    cycle_start_s: float
    cycle_end_s: float
    total_usage: ResourceVector
    per_subscriber: Dict[str, RPNUsageReport] = field(default_factory=dict)

    @property
    def cycle_length_s(self) -> float:
        """Duration the message covers."""
        return self.cycle_end_s - self.cycle_start_s

    def age_s(self, now: float) -> float:
        """Report lag: how stale the covered cycle is on arrival.

        Measured from the end of the reported cycle to ``now`` (transit
        plus queueing delay); the telemetry layer histograms this as
        ``repro.core.report_lag_s``, the staleness that drives Figure 3's
        deviation-vs-cycle behaviour.
        """
        return max(0.0, now - self.cycle_end_s)

    def __repr__(self) -> str:
        return "<AccountingMessage {} [{:.3f},{:.3f}] subs={}>".format(
            self.rpn_id, self.cycle_start_s, self.cycle_end_s, len(self.per_subscriber)
        )
