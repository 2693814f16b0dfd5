"""A request-count weighted-fair dispatcher (no resource accounting).

§2 of the paper criticizes user-level QoS systems because they "cannot
have an accurate system resource usage information, and consequently the
QoS support is mostly qualitative rather than quantitative."  This
baseline makes that failure measurable: it runs the same weighted
round-robin queueing as Gage but meters *request counts* against the
reservations instead of measured CPU/disk/network usage.

When every request costs the same it behaves exactly like Gage.  When
subscribers' requests differ in cost — one serves 1 KB pages, another
64 KB pages — count-fairness hands the expensive-page subscriber several
times its paid-for resources, and its neighbours' guarantees quietly
evaporate.  Benchmark: ``benchmarks/test_ablation_count_fairness.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from repro.cluster.webserver import WebServer
from repro.sim.engine import Environment
from repro.workload.request import RequestRecord, WebRequest, issue_delays


@dataclass
class CountFairQueue:
    """One subscriber's queue with a requests-per-second reservation."""

    name: str
    reserved_rps: float
    queue_capacity: int = 2048
    queue: Deque[WebRequest] = field(default_factory=deque, repr=False)
    balance: float = 0.0
    arrived: int = 0
    dropped: int = 0
    dispatched: int = 0


class CountFairDispatcher:
    """WRR over request *counts*: Gage minus the accounting feedback."""

    #: A queue may bank at most this many cycles of unused count credit.
    CREDIT_CAP_CYCLES = 4.0

    def __init__(
        self,
        env: Environment,
        webservers: List[WebServer],
        cycle_s: float = 0.010,
        max_in_flight_per_server: int = 64,
    ) -> None:
        if not webservers:
            raise ValueError("need at least one back-end server")
        if cycle_s <= 0:
            raise ValueError("cycle must be positive")
        self.env = env
        self.webservers = list(webservers)
        self.cycle_s = cycle_s
        self.max_in_flight = max_in_flight_per_server
        self._in_flight: Dict[int, int] = {i: 0 for i in range(len(webservers))}
        self._queues: Dict[str, CountFairQueue] = {}
        #: (time, host) per completion.
        self.completions: List[Tuple[float, str]] = []
        for server in self.webservers:
            server.on_complete.append(
                lambda host, _req, _usage, at: self.completions.append((at, host))
            )
        env.process(self._loop())

    def add_subscriber(
        self, name: str, reserved_rps: float, queue_capacity: int = 2048
    ) -> CountFairQueue:
        """Register one subscriber with a requests/second reservation."""
        if name in self._queues:
            raise RuntimeError("subscriber {!r} already exists".format(name))
        if reserved_rps < 0:
            raise ValueError("negative reservation")
        queue = CountFairQueue(name, reserved_rps, queue_capacity)
        self._queues[name] = queue
        return queue

    def submit(self, request: WebRequest) -> bool:
        """Queue one request under its host's subscriber."""
        queue = self._queues.get(request.host)
        if queue is None:
            return False
        queue.arrived += 1
        if len(queue.queue) >= queue.queue_capacity:
            queue.dropped += 1
            return False
        queue.queue.append(request)
        return True

    def load_trace(self, records: List[RequestRecord]) -> None:
        """Schedule a trace for issue."""
        self.env.call_later_each(
            issue_delays(records, self.env.now),
            lambda record: self.submit(record.to_request()),
            records,
        )

    def completed_rate(self, host: str, start_s: float, end_s: float) -> float:
        """Completions per second for one host in a window."""
        count = sum(1 for at, h in self.completions if h == host and start_s <= at < end_s)
        duration = end_s - start_s
        return count / duration if duration > 0 else 0.0

    def _loop(self):
        while True:
            yield self.env.timeout(self.cycle_s)
            # Reserved pass: counts, not resources.
            for queue in self._queues.values():
                credit = queue.reserved_rps * self.cycle_s
                cap = credit * self.CREDIT_CAP_CYCLES
                queue.balance = min(queue.balance + credit, max(cap, 1.0))
                while queue.queue and queue.balance >= 1.0:
                    if not self._dispatch(queue):
                        break
                    queue.balance -= 1.0
            # Spare pass: leftover dispatch slots by reservation weight.
            backlogged = [q for q in self._queues.values() if q.queue]
            total = sum(q.reserved_rps for q in backlogged) or len(backlogged)
            for queue in backlogged:
                weight = (queue.reserved_rps or 1.0) / total
                share = self._spare_slots() * weight
                while queue.queue and share >= 1.0:
                    if not self._dispatch(queue):
                        break
                    share -= 1.0

    def _spare_slots(self) -> float:
        free = sum(
            max(0, self.max_in_flight - self._in_flight[i])
            for i in range(len(self.webservers))
        )
        return float(free)

    def _dispatch(self, queue: CountFairQueue) -> bool:
        index = min(self._in_flight, key=lambda i: self._in_flight[i])
        if self._in_flight[index] >= self.max_in_flight:
            return False
        request = queue.queue.popleft()
        queue.dispatched += 1
        self._in_flight[index] += 1
        self.env.process(self._service(index, request))
        return True

    def _service(self, index: int, request: WebRequest):
        try:
            yield self.env.process(self.webservers[index].service_request(request))
        finally:
            self._in_flight[index] -= 1
