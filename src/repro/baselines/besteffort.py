"""A best-effort (no-QoS) request dispatcher.

This is the comparator the paper measures Gage's throughput penalty
against (§4.3: "we also measured the throughput each RPN can support
without Gage ... 550.5 requests/sec, compared to 540 requests/sec when
Gage is in place").  Requests are forwarded immediately — no
classification against reservations, no credit scheduling, no usage
accounting — to the back-end with the fewest requests in flight.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.webserver import WebServer
from repro.sim.engine import Environment
from repro.workload.request import RequestRecord, WebRequest, issue_delays


class BestEffortDispatcher:
    """Least-in-flight immediate dispatch across back-end web servers."""

    def __init__(
        self,
        env: Environment,
        webservers: List[WebServer],
        dispatch_latency_s: float = 0.0002,
        max_in_flight_per_server: int = 256,
    ) -> None:
        if not webservers:
            raise ValueError("need at least one back-end server")
        self.env = env
        self.webservers = list(webservers)
        self.dispatch_latency_s = dispatch_latency_s
        self.max_in_flight = max_in_flight_per_server
        self._in_flight: Dict[int, int] = {i: 0 for i in range(len(webservers))}
        self._rotation = 0  # rotating tie-break for equal in-flight counts
        self.submitted = 0
        self.dropped = 0
        #: (time, host) per completion.
        self.completions: List[Tuple[float, str]] = []
        for server in self.webservers:
            server.on_complete.append(self._on_complete)

    def _on_complete(self, host: str, _request: WebRequest, _usage, at: float) -> None:
        self.completions.append((at, host))

    def submit(self, request: WebRequest) -> bool:
        """Dispatch one request immediately; False if every server is full."""
        self.submitted += 1
        count = len(self.webservers)
        self._rotation += 1
        index = min(
            self._in_flight,
            key=lambda i: (self._in_flight[i], (i - self._rotation) % count),
        )
        if self._in_flight[index] >= self.max_in_flight:
            self.dropped += 1
            return False
        self._in_flight[index] += 1
        server = self.webservers[index]
        self.env.call_later(
            self.dispatch_latency_s,
            lambda: self.env.process(self._service(server, index, request)),
        )
        return True

    def _service(self, server: WebServer, index: int, request: WebRequest):
        try:
            yield self.env.process(server.service_request(request))
        finally:
            self._in_flight[index] -= 1

    def load_trace(self, records: List[RequestRecord]) -> None:
        """Schedule a trace for immediate-dispatch issue."""
        self.env.call_later_each(
            issue_delays(records, self.env.now),
            lambda record: self.submit(record.to_request()),
            records,
        )

    def completed_rate(self, start_s: float, end_s: float, host: Optional[str] = None) -> float:
        """Completions per second in a window (optionally one host)."""
        count = sum(
            1
            for at, h in self.completions
            if start_s <= at < end_s and (host is None or h == host)
        )
        duration = end_s - start_s
        return count / duration if duration > 0 else 0.0
