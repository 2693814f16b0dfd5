"""Web request/response models and the per-request cost model.

A :class:`WebRequest` is the application payload the client sends in its
first data packet (the URL); a :class:`WebResponse` is what the back-end
returns.  :class:`CostModel` converts a request into the CPU/disk work the
back-end performs for it — the knob that distinguishes the paper's
"generic" requests from the cheap cached accesses of the scalability
experiment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence

_request_ids = itertools.count(1)


@dataclass
class WebRequest:
    """One URL access request.

    Attributes
    ----------
    host:
        The Host: header — the paper classifies requests to subscribers
        "according to the host-name part of the URL" (§3.3).
    path:
        The URL path; identifies the file within the subscriber's site.
    size_bytes:
        Size of the requested page (drives disk and network usage).
    cpu_extra_s:
        Additional CPU the request demands beyond the cost model's base
        (models CGI/dynamic content).
    issued_at:
        Simulated time the client issued the request.
    """

    host: str
    path: str
    size_bytes: int
    cpu_extra_s: float = 0.0
    issued_at: float = 0.0
    rid: int = field(default_factory=lambda: next(_request_ids))

    @property
    def request_bytes(self) -> int:
        """Wire size of the HTTP request itself (GET line + headers)."""
        return min(512, 160 + len(self.path) + len(self.host))

    def __repr__(self) -> str:
        return "<WebRequest #{} {}{} {}B>".format(
            self.rid, self.host, self.path, self.size_bytes
        )


@dataclass
class WebResponse:
    """The back-end's answer to a :class:`WebRequest`."""

    request: WebRequest
    size_bytes: int
    status: int = 200

    def __repr__(self) -> str:
        return "<WebResponse #{} status={} {}B>".format(
            self.request.rid, self.status, self.size_bytes
        )


@dataclass(frozen=True)
class CostModel:
    """Maps a request to the back-end work it causes.

    CPU time is ``base_cpu_s + per_kb_cpu_s × size_KB + cpu_extra_s``;
    disk time (on a buffer-cache miss) is ``seek_s + size / transfer_Bps``.

    The defaults make a 2000-byte page access that misses the buffer cache
    cost exactly one generic request (§3.1): 10 ms CPU, 10 ms disk
    channel, 2000 bytes of network.
    """

    base_cpu_s: float = 0.00941
    per_kb_cpu_s: float = 0.0003
    seek_s: float = 0.0098
    transfer_bps: float = 20e6  # disk transfer rate, bytes/sec

    def cpu_seconds(self, request: WebRequest) -> float:
        """CPU time the back-end spends servicing ``request``."""
        return (
            self.base_cpu_s
            + self.per_kb_cpu_s * (request.size_bytes / 1024.0)
            + request.cpu_extra_s
        )

    def disk_seconds(self, request: WebRequest) -> float:
        """Disk channel time on a buffer-cache miss."""
        return self.seek_s + request.size_bytes / self.transfer_bps


@dataclass(frozen=True)
class RequestRecord:
    """One line of a workload trace: when to ask which host for what."""

    at_s: float
    host: str
    path: str
    size_bytes: int
    cpu_extra_s: float = 0.0

    def to_request(self) -> WebRequest:
        """Materialize the trace record as an issuable request."""
        return WebRequest(
            host=self.host,
            path=self.path,
            size_bytes=self.size_bytes,
            cpu_extra_s=self.cpu_extra_s,
            issued_at=self.at_s,
        )


def issue_delays(records: Sequence[RequestRecord], now: float) -> List[float]:
    """Seconds from ``now`` until each record is due (0.0 if already past).

    Open-loop replay issues every record at its trace time regardless of
    what is outstanding, so a trace is scheduled whole with
    ``env.call_later_each(issue_delays(records, env.now), fn, records)``.
    """
    return [max(0.0, record.at_s - now) for record in records]
