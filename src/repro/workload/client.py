"""Open-loop simulated clients (packet mode).

Implements the load-generation method of Banga & Druschel [19] that the
paper's evaluation uses: requests are issued at their trace-scheduled
times regardless of how many earlier requests are still outstanding, so
an overloaded server cannot silently throttle the offered load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.net.addresses import IPAddress
from repro.net.tcp import Connection, ConnectionError_, HostStack
from repro.sim.engine import Deadline, Environment
from repro.workload.request import RequestRecord, WebResponse, issue_delays


@dataclass
class ClientStats:
    """Aggregate outcomes across the fleet."""

    issued: int = 0
    completed: int = 0
    failed: int = 0
    bytes_received: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: (completion_time, host) pairs for rate analysis.
    completions: List["tuple[float, str]"] = field(default_factory=list)

    @property
    def mean_latency_s(self) -> float:
        """Mean request latency over completed requests."""
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    def completed_rate(self, duration_s: float) -> float:
        """Completed requests per second."""
        return self.completed / duration_s if duration_s > 0 else 0.0


class ClientFleet:
    """Drives a trace against the cluster IP from a set of client hosts.

    Each request waits at most ``request_timeout_s`` for its connection's
    handshake (``None``: for ever).  The deadline is armed on a
    :class:`~repro.sim.engine.TimerStream` and released as soon as the
    handshake completes or the connect is refused, so it leaves the
    engine heap then and a finished request holds no engine state.  The
    stream fires deadlines in arming order, so the timeout must not
    shrink once requests have been issued.
    """

    def __init__(
        self,
        env: Environment,
        stacks: Sequence[HostStack],
        cluster_ip: IPAddress,
        port: int = 80,
        request_timeout_s: Optional[float] = 30.0,
    ) -> None:
        if not stacks:
            raise ValueError("need at least one client stack")
        self.env = env
        self.stacks = list(stacks)
        self.cluster_ip = cluster_ip
        self.port = port
        self.request_timeout_s = request_timeout_s
        self.stats = ClientStats()
        self._next_stack = 0
        self._deadlines = Deadline.stream(env)

    def run_trace(self, records: Sequence[RequestRecord]) -> None:
        """Schedule every record for issue at its trace time."""
        self.env.call_later_each(issue_delays(records, self.env.now), self._issue, records)

    def _issue(self, record: RequestRecord) -> None:
        stack = self.stacks[self._next_stack % len(self.stacks)]
        self._next_stack += 1
        self.stats.issued += 1
        self.env.process(self._one_request(stack, record))

    def _one_request(self, stack: HostStack, record: RequestRecord):
        started = self.env.now
        request = record.to_request()
        request.issued_at = started
        conn = stack.connect(self.cluster_ip, self.port)
        try:
            if self.request_timeout_s is not None:
                deadline = Deadline(self._deadlines, self.request_timeout_s)
                try:
                    result = yield conn.established | deadline
                finally:
                    deadline.release()
                if conn.established not in result:
                    conn.abort()
                    self.stats.failed += 1
                    return
            else:
                yield conn.established
            yield conn.send(request.request_bytes, payload=request)
            received = 0
            response: Optional[WebResponse] = None
            while True:
                payload, length = yield conn.receive()
                if payload is Connection.EOF:
                    break
                received += length
                if isinstance(payload, WebResponse):
                    response = payload
                    if received >= response.size_bytes:
                        break
            conn.close()
            if response is None:
                self.stats.failed += 1
                return
            self.stats.completed += 1
            self.stats.bytes_received += received
            self.stats.latencies_s.append(self.env.now - started)
            self.stats.completions.append((self.env.now, record.host))
        except ConnectionError_ as error:
            # The connection keeps the error it failed with; the traceback
            # through this frame would close a cycle back to it.
            error.__traceback__ = None
            self.stats.failed += 1
