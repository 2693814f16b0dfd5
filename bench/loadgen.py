"""The benchmark's own HTTP load generator: one thread, one selector.

Two disciplines:

- :meth:`LoadGenerator.run_closed` — a fixed set of keep-alive
  connections, each sending its next request only when the previous
  response has fully arrived and an optional think time has passed.  A
  slow server therefore receives less load; latency runs from the moment
  the request is written.
- :meth:`LoadGenerator.run_open` — one new connection per request, fired
  at *absolute* due times regardless of completions.  Latency runs from
  the due time, so a generator or server stall is charged to every
  request it delays, and the lateness of each send is recorded.

Every exchange is split into connect / time-to-first-byte / body and
carries the status, the announced and received body length and the
body's SHA-256, so the caller can check each response against a
reference.  The generator never interprets a status: refusals,
mismatches and transport errors are all just records.
"""

from __future__ import annotations

import hashlib
import heapq
import selectors
import socket
import time
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

_SCRATCH = memoryview(bytearray(256 * 1024))
_HEAD_END = b"\r\n\r\n"

#: Give up on a run when nothing at all happens for this long.
STALL_TIMEOUT_S = 5.0

_clock = time.perf_counter


class Exchange:
    """One request and what came back.  Times are ``perf_counter`` values."""

    __slots__ = (
        "site",
        "path",
        "due",
        "sent",
        "connected",
        "first_byte",
        "done",
        "status",
        "announced",
        "received",
        "digest",
        "error",
    )

    def __init__(self, site: str, path: str, due: float) -> None:
        self.site = site
        self.path = path
        #: When the request was meant to go out (open loop) or went out.
        self.due = due
        self.sent = due
        #: When the TCP connect finished; ``None`` on a reused connection.
        self.connected: Optional[float] = None
        self.first_byte: Optional[float] = None
        self.done: Optional[float] = None
        #: HTTP status, or 0 when no complete response arrived.
        self.status = 0
        self.announced = -1
        self.received = 0
        self.digest = b""
        self.error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


def request_bytes(site: str, path: str, keep_alive: bool) -> bytes:
    return "GET {} HTTP/1.1\r\nhost: {}\r\nconnection: {}\r\n\r\n".format(
        path, site, "keep-alive" if keep_alive else "close"
    ).encode("latin-1")


class _Client:
    """One connection driving one exchange at a time."""

    def __init__(self, address: Tuple[str, int], keep_alive: bool) -> None:
        self.address = address
        self.keep_alive = keep_alive
        self.sock: Optional[socket.socket] = None
        self.registered = 0
        self.exchange: Optional[Exchange] = None
        self._out = b""
        self._head = bytearray()
        self._remaining = -1
        self._hasher = None
        self._connecting = False
        #: Set when an exchange ends: the owner must unregister and close.
        self.close_after = False

    def begin(self, exchange: Exchange) -> int:
        """Start ``exchange``; returns the selector events to wait for."""
        self.exchange = exchange
        self._out = request_bytes(exchange.site, exchange.path, self.keep_alive)
        self._head = bytearray()
        self._remaining = -1
        self._hasher = hashlib.sha256()
        exchange.sent = _clock()
        if self.sock is None:
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self.sock.setblocking(False)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.connect_ex(self.address)
            self._connecting = True
            return selectors.EVENT_WRITE  # writable == connect finished
        return self._send()

    def _send(self) -> int:
        try:
            sent = self.sock.send(self._out)
        except BlockingIOError:
            return selectors.EVENT_WRITE
        self._out = self._out[sent:]
        return selectors.EVENT_WRITE if self._out else selectors.EVENT_READ

    def on_event(self, mask: int) -> int:
        """Advance on readiness; returns events to wait for, 0 when done."""
        exchange = self.exchange
        try:
            if mask & selectors.EVENT_WRITE:
                if self._connecting:
                    error = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                    if error:
                        raise OSError(error, "connect failed")
                    exchange.connected = _clock()
                    self._connecting = False
                return self._send()
            return self._receive()
        except (OSError, ValueError, IndexError) as exc:  # transport, or a bad head
            return self._finish(error=type(exc).__name__)

    def _receive(self) -> int:
        exchange = self.exchange
        try:
            count = self.sock.recv_into(_SCRATCH)
        except BlockingIOError:
            return selectors.EVENT_READ
        now = _clock()
        if count == 0:
            return self._finish(error="closed early")
        if exchange.first_byte is None:
            exchange.first_byte = now
        chunk = _SCRATCH[:count]
        if self._remaining < 0:
            self._head += chunk
            end = self._head.find(_HEAD_END)
            if end < 0:
                return selectors.EVENT_READ
            self._parse_head(bytes(self._head[:end]))
            chunk = memoryview(self._head)[end + len(_HEAD_END):]
        if len(chunk):
            self._hasher.update(chunk)
            exchange.received += len(chunk)
            self._remaining -= len(chunk)
        if self._remaining <= 0:
            exchange.done = now
            return self._finish()
        return selectors.EVENT_READ

    def _parse_head(self, head: bytes) -> None:
        lines = head.split(b"\r\n")
        self.exchange.status = int(lines[0].split(None, 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        self.exchange.announced = self._remaining = int(headers.get(b"content-length", 0))
        server_keeps = headers.get(b"connection", b"").lower() == b"keep-alive"
        self.close_after = not (self.keep_alive and server_keeps)

    def _finish(self, error: Optional[str] = None) -> int:
        exchange = self.exchange
        exchange.error = error
        exchange.digest = self._hasher.digest()
        if exchange.done is None:  # no complete response
            exchange.done = _clock()
            exchange.status = 0
            self.close_after = True
        return 0

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class LoadGenerator:
    """Drives exchanges against one address and collects the records."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self._selector = selectors.DefaultSelector()
        self._keepalive_clients: List[_Client] = []

    def close(self) -> None:
        for client in self._keepalive_clients:
            self._drop(client)
        self._keepalive_clients = []
        self._selector.close()

    # -- selector bookkeeping ---------------------------------------------------

    def _watch(self, client: _Client, events: int) -> None:
        if events == client.registered:
            return
        if client.registered and client.sock is not None and events:
            self._selector.modify(client.sock, events, client)
        elif events:
            self._selector.register(client.sock, events, client)
        elif client.sock is not None:
            self._selector.unregister(client.sock)
        client.registered = events

    def _drop(self, client: _Client) -> None:
        self._watch(client, 0)
        client.close()

    def _advance(self, client: _Client, mask: int) -> bool:
        """Feed one readiness event; True when the exchange finished."""
        if client.exchange is None:
            self._drop(client)  # the server closed an idle keep-alive socket
            return False
        events = client.on_event(mask)
        if events:
            self._watch(client, events)
        elif client.close_after:
            self._drop(client)
        return events == 0

    # -- closed loop --------------------------------------------------------------

    def run_closed(
        self,
        requests: Iterator[Tuple[str, str]],
        connections: int,
        *,
        duration_s: Optional[float] = None,
        count: Optional[int] = None,
        think: Optional[Callable[[], float]] = None,
    ) -> List[Exchange]:
        """Keep ``connections`` keep-alive clients cycling; stop on time or count.

        ``requests`` yields ``(site, path)``.  After each response a
        client waits ``think()`` seconds before its next request (not at
        all without ``think``).  Connections persist across calls, so a
        warm-up call leaves them open for the timed one.
        """
        if (duration_s is None) == (count is None):
            raise ValueError("give exactly one of duration_s and count")
        while len(self._keepalive_clients) < connections:
            self._keepalive_clients.append(_Client(self.address, keep_alive=True))
        deadline = None if duration_s is None else _clock() + duration_s
        budget = count
        records: List[Exchange] = []
        #: (send at, tie-break, client) for clients that are thinking.
        thinking: List[Tuple[float, int, _Client]] = []
        in_flight = 0

        def issue(client: _Client) -> bool:
            nonlocal budget
            if deadline is not None and _clock() >= deadline:
                return False
            if budget is not None:
                if budget <= 0:
                    return False
                budget -= 1
            site, path = next(requests)
            self._watch(client, client.begin(Exchange(site, path, _clock())))
            return True

        for client in self._keepalive_clients[:connections]:
            in_flight += issue(client)
        progressed = _clock()
        while True:
            now = _clock()
            while thinking and thinking[0][0] <= now:
                in_flight += issue(heapq.heappop(thinking)[2])
            if not (in_flight or thinking):
                break  # time or count used up and every answer is in
            if now - progressed > STALL_TIMEOUT_S:
                break  # stalled: what is in flight is reported as failed below
            wait = thinking[0][0] - now if thinking else STALL_TIMEOUT_S
            for key, mask in self._selector.select(max(0.0, min(wait, STALL_TIMEOUT_S))):
                client = key.data
                if self._advance(client, mask):
                    progressed = _clock()
                    records.append(client.exchange)
                    client.exchange = None
                    in_flight -= 1
                    if think is None:
                        in_flight += issue(client)
                    else:
                        heapq.heappush(thinking, (progressed + think(), len(records), client))
        records.extend(self._abandon(self._keepalive_clients))
        return records

    # -- open loop ------------------------------------------------------------------

    def run_open(
        self, schedule: Iterable[Tuple[float, str, str]], drain_s: float = 2.0
    ) -> Tuple[List[Exchange], List[float]]:
        """Fire ``(offset_s, site, path)`` at absolute due times.

        Returns the records and, per request, how late it was sent.
        Requests still unanswered ``drain_s`` after the last due time are
        abandoned and reported with status 0.
        """
        plan = sorted(schedule)
        origin = _clock() + 0.05
        records: List[Exchange] = []
        lateness: List[float] = []
        in_flight = set()
        index = 0
        give_up = origin + (plan[-1][0] if plan else 0.0) + drain_s
        while index < len(plan) or in_flight:
            now = _clock()
            while index < len(plan) and origin + plan[index][0] <= now:
                offset, site, path = plan[index]
                index += 1
                client = _Client(self.address, keep_alive=False)
                self._watch(client, client.begin(Exchange(site, path, origin + offset)))
                lateness.append(client.exchange.sent - client.exchange.due)
                in_flight.add(client)
                now = _clock()
            if index < len(plan):
                timeout = max(0.0, origin + plan[index][0] - now)
            else:
                timeout = give_up - now
                if timeout <= 0:
                    break
            for key, mask in self._selector.select(timeout):
                client = key.data
                if self._advance(client, mask):
                    records.append(client.exchange)
                    in_flight.discard(client)
        records.extend(self._abandon(in_flight))
        return records, lateness

    def _abandon(self, clients: Iterable[_Client]) -> List[Exchange]:
        """Close clients that still have an exchange in flight."""
        lost = []
        for client in list(clients):
            if client.exchange is None:
                continue
            exchange, client.exchange = client.exchange, None
            exchange.error = "abandoned"
            exchange.status = 0
            exchange.done = _clock()
            lost.append(exchange)
            self._drop(client)
        return lost
