"""A strict-priority class dispatcher (the related-work strawman).

§2 of the paper: "Most other efforts at providing quality of service in
web hosting clusters are priority-based, i.e., they do not provide
guaranteed QoS ... these approaches allow one service class to receive
qualitatively better service than the other, but do not provide a
quantitative bound."

This dispatcher demonstrates exactly that failure mode: higher classes
always drain first, so an overloaded premium class starves basic-class
subscribers entirely — the behaviour Gage's credit scheduler eliminates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from repro.cluster.webserver import WebServer
from repro.sim.engine import Environment
from repro.workload.request import RequestRecord, WebRequest, issue_delays


@dataclass
class PriorityClass:
    """One service class: lower ``level`` drains first."""

    name: str
    level: int
    queue_capacity: int = 2048
    queue: Deque[WebRequest] = field(default_factory=deque, repr=False)
    arrived: int = 0
    dropped: int = 0
    dispatched: int = 0


class PriorityDispatcher:
    """Strict-priority queueing over the same back-end substrate."""

    def __init__(
        self,
        env: Environment,
        webservers: List[WebServer],
        cycle_s: float = 0.010,
        dispatches_per_cycle: int = 16,
        max_in_flight_per_server: int = 64,
    ) -> None:
        if not webservers:
            raise ValueError("need at least one back-end server")
        self.env = env
        self.webservers = list(webservers)
        self.cycle_s = cycle_s
        self.dispatches_per_cycle = dispatches_per_cycle
        self.max_in_flight = max_in_flight_per_server
        self._in_flight: Dict[int, int] = {i: 0 for i in range(len(webservers))}
        self._classes: Dict[str, PriorityClass] = {}
        self._host_class: Dict[str, str] = {}
        #: (time, host) per completion.
        self.completions: List[Tuple[float, str]] = []
        for server in self.webservers:
            server.on_complete.append(
                lambda host, _req, _usage, at: self.completions.append((at, host))
            )
        env.process(self._loop())

    def add_class(self, name: str, level: int, hosts: List[str], queue_capacity: int = 2048) -> PriorityClass:
        """Register a priority class and the hosts it covers."""
        if name in self._classes:
            raise RuntimeError("class {!r} already exists".format(name))
        cls = PriorityClass(name=name, level=level, queue_capacity=queue_capacity)
        self._classes[name] = cls
        for host in hosts:
            self._host_class[host] = name
        return cls

    def submit(self, request: WebRequest) -> bool:
        """Queue a request under its host's class."""
        class_name = self._host_class.get(request.host)
        if class_name is None:
            return False
        cls = self._classes[class_name]
        cls.arrived += 1
        if len(cls.queue) >= cls.queue_capacity:
            cls.dropped += 1
            return False
        cls.queue.append(request)
        return True

    def load_trace(self, records: List[RequestRecord]) -> None:
        """Schedule a trace for issue."""
        self.env.call_later_each(
            issue_delays(records, self.env.now),
            lambda record: self.submit(record.to_request()),
            records,
        )

    def _loop(self):
        while True:
            yield self.env.timeout(self.cycle_s)
            budget = self.dispatches_per_cycle
            for cls in sorted(self._classes.values(), key=lambda c: c.level):
                while budget > 0 and cls.queue:
                    index = min(self._in_flight, key=lambda i: self._in_flight[i])
                    if self._in_flight[index] >= self.max_in_flight:
                        budget = 0
                        break
                    request = cls.queue.popleft()
                    cls.dispatched += 1
                    budget -= 1
                    self._in_flight[index] += 1
                    self.env.process(self._service(index, request))

    def _service(self, index: int, request: WebRequest):
        try:
            yield self.env.process(self.webservers[index].service_request(request))
        finally:
            self._in_flight[index] -= 1

    def completed_rate(self, host: str, start_s: float, end_s: float) -> float:
        """Completions per second for one host in a window."""
        count = sum(1 for at, h in self.completions if h == host and start_s <= at < end_s)
        duration = end_s - start_s
        return count / duration if duration > 0 else 0.0

    def class_of(self, name: str) -> PriorityClass:
        """Look up a registered class."""
        return self._classes[name]
