"""Client-facing session handling: admission, keep-alive, shedding.

Split out of :mod:`repro.proxy.frontend` (a pure move): everything
between ``accept()`` and the scheduler queue lives here — parsing the
request head, classifying it to a subscriber, the admission/shedding
decisions (404 unknown host, 503 queue-full, 503 no-healthy-backend),
and the one task per client connection that serves its requests in
turn.  :class:`~repro.proxy.frontend.GageProxy` mixes this in; the
dispatch/splice data plane and backend health logic stay in
``frontend.py``.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.metrics import REQUEST_SHED
from repro.proxy.http import HTTPError, HTTPRequestHead, read_request_head
from repro.proxy.splice import timeout, tune_transport
from repro.resources import ResourceVector

#: How long the front end waits for the next request on an idle
#: keep-alive client connection before closing it.
KEEPALIVE_IDLE_S = 15.0


@dataclass
class _PendingConnection:
    """A classified, queued client connection awaiting dispatch."""

    head: HTTPRequestHead
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    subscriber: str
    #: Loop-clock time the request entered its subscriber queue; the
    #: per-request deadline (``ProxyConfig.request_deadline_s``) counts from
    #: here, so time spent queued behind the WRR gate is included.
    enqueued_at: float
    #: The scheduler's verdict, awaited by the connection's task:
    #: ``(backend, subscriber, predicted)`` on dispatch, None when shed.
    verdict: asyncio.Future[Optional[Tuple[str, str, ResourceVector]]]


#: Rendered refusal heads, keyed (status, reason, retry_after_s).  A
#: shedding proxy refuses thousands of identical 503s; rendering each
#: once is free throughput on exactly the overloaded path.
_REFUSAL_CACHE: Dict[Tuple[int, str, Optional[int]], bytes] = {}


def _refusal_bytes(status: int, reason: str, retry_after_s: Optional[int]) -> bytes:
    key = (status, reason, retry_after_s)
    rendered = _REFUSAL_CACHE.get(key)
    if rendered is None:
        headers = ["content-length: 0", "connection: close"]
        if retry_after_s is not None:
            headers.append("retry-after: {}".format(retry_after_s))
        rendered = "HTTP/1.0 {} {}\r\n{}\r\n\r\n".format(
            status, reason, "\r\n".join(headers)
        ).encode("latin-1")
        _REFUSAL_CACHE[key] = rendered
    return rendered


class ClientSessionMixin:
    """The client-admission half of :class:`~repro.proxy.frontend.GageProxy`.

    Relies on attributes the concrete proxy constructs: ``stats``,
    ``classifier``, ``queues``, ``node_scheduler``, ``failures``,
    ``proxy_config``, ``_loop``, ``_tm_shed``, ``_tm_accepts``,
    ``_track()``, ``_now()`` and ``_serve()``.
    """

    # -- client admission ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection in this task: read a head, queue it,
        await the scheduler's verdict, serve it inline, read the next head."""
        self.stats.accepted += 1
        self._tm_accepts.inc()
        self._track(asyncio.current_task())
        tune_transport(writer.transport)
        try:
            head = await read_request_head(reader)
            while True:
                pending = await self._admit(head, reader, writer)
                if pending is None:
                    return
                verdict = await pending.verdict
                if verdict is None:  # shed: no backend is healthy
                    await self._refuse(
                        writer, 503, "Service Unavailable", retry_after_s=self._retry_after_s()
                    )
                    return
                if not await self._serve(pending, *verdict):
                    return
                with timeout(KEEPALIVE_IDLE_S):
                    head = await read_request_head(reader)
                self.stats.keepalive_requests += 1
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, HTTPError, ConnectionError):
            pass  # an idle, malformed or vanished client
        except asyncio.CancelledError:
            # stop() cancelled the connection: exit quietly, or the
            # server's done-callback logs the cancellation as an error.
            pass
        finally:
            writer.close()  # no-op if a refusal or _serve already closed it

    async def _admit(
        self,
        head: HTTPRequestHead,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Optional[_PendingConnection]:
        """Classify one parsed request and queue it; None if refused instead."""
        subscriber = self.classifier.classify_payload(head)
        if subscriber is None:
            self.stats.rejected_unknown_host += 1
            await self._refuse(writer, 404, "Not Found")
            return None
        if not self.node_scheduler.up_nodes():
            # Load shedding: every backend is ejected, so queueing would
            # only delay the inevitable — fail fast and tell the client
            # when to come back.
            self.stats.shed_no_backend += 1
            self._tm_shed.inc()
            self.failures.record(self._now(), REQUEST_SHED, subscriber)
            await self._refuse(
                writer, 503, "Service Unavailable", retry_after_s=self._retry_after_s()
            )
            return None
        pending = _PendingConnection(
            head, reader, writer, subscriber, self._now(), self._loop.create_future()
        )
        queue = self.queues.get(subscriber)
        if queue is None or not queue.offer(pending):
            self.stats.dropped_queue_full += 1
            await self._refuse(
                writer, 503, "Service Unavailable", retry_after_s=1
            )
            return None
        return pending

    # -- shedding -----------------------------------------------------------

    def _shed_queued(self) -> None:
        """Shed every queued request while no backend is healthy.

        Without this, connections admitted just before the last backend
        was ejected would sit in their queues indefinitely (``pick``
        returns None) and their clients would hang instead of failing
        fast.  Each connection's own task writes the 503.
        """
        for queue in self.queues:
            while queue.backlogged:
                pending = queue.take()
                if pending.verdict.done():
                    continue  # its connection is already gone
                self.stats.shed_no_backend += 1
                self._tm_shed.inc()
                self.failures.record(self._now(), REQUEST_SHED, pending.subscriber)
                pending.verdict.set_result(None)

    @staticmethod
    async def _refuse(
        writer: asyncio.StreamWriter,
        status: int,
        reason: str,
        retry_after_s: Optional[int] = None,
    ) -> None:
        try:
            writer.write(_refusal_bytes(status, reason, retry_after_s))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    def _retry_after_s(self) -> int:
        """When a shed client should retry: one probe interval, >= 1 s."""
        return max(1, int(math.ceil(self.proxy_config.probe_interval_s)))
