"""Open-loop trace replay shared by every baseline dispatcher."""

from __future__ import annotations

from typing import Callable, List

from repro.sim.engine import Environment
from repro.workload.request import RequestRecord, WebRequest, issue_delays


class TraceReplay:
    """Issues each trace record to ``submit`` at its trace time."""

    env: Environment
    submit: Callable[[WebRequest], bool]

    def load_trace(self, records: List[RequestRecord]) -> None:
        """Schedule a trace for issue."""
        self.env.call_later_each(
            issue_delays(records, self.env.now),
            lambda record: self.submit(record.to_request()),
            records,
        )
