"""The back-end HTTP server of the asyncio deployment.

Serves synthetic site content from an in-memory catalog, models CPU/disk
service time (as event-loop sleeps, scaled by a cost model), and attaches
the per-request resource usage to every response in an ``X-Gage-Usage``
header — the real-socket analogue of the RPN's resource usage accounting
(§3.5): here the *server* measures usage, and the front end collects it.

The server speaks HTTP/1.1 keep-alive: one connection (typically a
pooled socket held by the front end) carries many requests, with an idle
timeout reclaiming abandoned ones.  Every response, warm or cold, goes
out the same way: the head and views of one preallocated body buffer in
a vectored write (one ``sendmsg`` when the transport buffer is empty),
draining only when the transport's write buffer passes its high-water
mark.  A small response therefore leaves in one segment, so the front
end finds head and body together in its first read.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Tuple

from repro.proxy.http import (
    HTTPError,
    HTTPResponseHead,
    USAGE_HEADER,
    read_request_head,
    render_response_head,
    wants_keep_alive,
)
from repro.proxy.splice import (
    over_high_water,
    timeout,
    tune_transport,
    vectored_write,
)
from repro.workload.request import CostModel, WebRequest

#: Body chunk written at a time, bytes.
CHUNK_BYTES = 16 * 1024

#: At most this many pieces (head included) per vectored write.
_BATCH_CHUNKS = 16

#: The synthetic body content, allocated once and sliced per response.
_BODY_VIEW = memoryview(b"x" * CHUNK_BYTES)


class BackendServer:
    """One back-end node: asyncio HTTP server over an in-memory file set.

    Parameters
    ----------
    sites:
        host → {path → size_bytes}; requests for other hosts/paths get 404.
    cost_model:
        Converts a request into modeled CPU/disk service time; set
        ``time_scale`` below 1.0 to shrink modeled sleeps in tests.
    keepalive_idle_s:
        How long an idle keep-alive connection is held before closing.
    extra_delay_fn:
        Optional ``(host, path) -> seconds`` of extra wall-clock service
        delay, added verbatim (not scaled by ``time_scale``).  Lets
        tests and benchmarks inject heavy-tailed (e.g. Pareto) or
        fault-shaped service times without touching the cost model.
    """

    def __init__(
        self,
        sites: Dict[str, Dict[str, int]],
        cost_model: Optional[CostModel] = None,
        time_scale: float = 1.0,
        host: str = "127.0.0.1",
        keepalive_idle_s: float = 15.0,
        extra_delay_fn: Optional[Callable[[str, str], float]] = None,
    ) -> None:
        if time_scale < 0:
            raise ValueError("negative time scale")
        if keepalive_idle_s <= 0:
            raise ValueError("keepalive_idle_s must be positive")
        self.sites = sites
        self.cost_model = cost_model or CostModel()
        self.time_scale = time_scale
        self.host = host
        self.keepalive_idle_s = keepalive_idle_s
        self.extra_delay_fn = extra_delay_fn
        self.port: Optional[int] = None
        self.requests_served = 0
        self.errors = 0
        self.bytes_sent = 0
        #: host → cached flag per path (one-shot "buffer cache").
        self._warm: Dict[Tuple[str, str], bool] = {}
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self, port: int = 0) -> int:
        """Bind and start serving; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Stop accepting and close the server."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tune_transport(writer.transport)
        try:
            while True:
                try:
                    with timeout(self.keepalive_idle_s):
                        head = await read_request_head(reader)
                except asyncio.TimeoutError:
                    return
                body_len = head.content_length
                if body_len:
                    await self._discard(reader, body_len)
                keep_alive = wants_keep_alive(head)
                await self._respond(head, writer, keep_alive)
                if not keep_alive:
                    return
        except (HTTPError, ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown with the connection parked (a pooled
            # keep-alive socket); exit quietly instead of letting the
            # server's done-callback log the cancellation.
            pass
        finally:
            writer.close()

    @staticmethod
    async def _discard(reader: asyncio.StreamReader, nbytes: int) -> None:
        """Consume a request body so the next head starts at a boundary."""
        remaining = nbytes
        while remaining > 0:
            chunk = await reader.read(min(CHUNK_BYTES, remaining))
            if not chunk:
                raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
            remaining -= len(chunk)

    async def _respond(
        self, head, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        host = head.host or ""
        site = self.sites.get(host)
        size = site.get(head.path) if site is not None else None
        connection = "keep-alive" if keep_alive else "close"
        if size is None:
            self.errors += 1
            response = HTTPResponseHead(
                version="HTTP/1.1",
                status=404,
                reason="Not Found",
                headers={"content-length": "0", "connection": connection},
            )
            writer.write(render_response_head(response))
            if over_high_water(writer):
                await writer.drain()
            return

        request = WebRequest(host=host, path=head.path, size_bytes=size)
        cpu_s = self.cost_model.cpu_seconds(request)
        key = (host, head.path)
        was_warm = bool(self._warm.get(key))
        disk_s = 0.0
        if not was_warm:
            disk_s = self.cost_model.disk_seconds(request)
            self._warm[key] = True
        service_s = (cpu_s + disk_s) * self.time_scale
        if self.extra_delay_fn is not None:
            service_s += self.extra_delay_fn(host, head.path)
        if service_s > 0:
            await asyncio.sleep(service_s)

        response = HTTPResponseHead(
            version="HTTP/1.1",
            status=200,
            reason="OK",
            headers={
                "content-length": str(size),
                "content-type": "text/html",
                "connection": connection,
                USAGE_HEADER: "{:.6f},{:.6f},{}".format(cpu_s, disk_s, size),
            },
        )
        head_bytes = render_response_head(response)
        pieces = [head_bytes]
        remaining = size
        while True:
            while remaining > 0 and len(pieces) < _BATCH_CHUNKS:
                take = min(CHUNK_BYTES, remaining)
                pieces.append(_BODY_VIEW[:take])
                remaining -= take
            vectored_write(writer, pieces)
            if remaining <= 0:
                break
            pieces = []
            if over_high_water(writer):
                await writer.drain()
        if over_high_water(writer):
            await writer.drain()
        self.requests_served += 1
        self.bytes_sent += size
