"""Client-facing session handling: admission, keep-alive, shedding.

Split out of :mod:`repro.proxy.frontend` (a pure move): everything
between ``accept()`` and the scheduler queue lives here — parsing the
request head, classifying it to a subscriber, the admission/shedding
decisions (404 unknown host, 503 queue-full, 503 no-healthy-backend),
and the keep-alive loop that parks an idle client connection between
requests.  :class:`~repro.proxy.frontend.GageProxy` mixes this in; the
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
from repro.proxy.splice import tune_transport

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
    enqueued_at: float = 0.0


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
    ``proxy_config``, ``_tasks``, ``_tm_shed``, ``_tm_accepts``, and
    ``_now()``.
    """

    # -- client admission ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.accepted += 1
        self._tm_accepts.inc()
        tune_transport(writer.transport)
        try:
            head = await read_request_head(reader)
        except (HTTPError, asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except asyncio.CancelledError:
            # Loop teardown while waiting on an idle client; exit quietly.
            writer.close()
            return
        await self._admit(head, reader, writer)

    async def _admit(
        self,
        head: HTTPRequestHead,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Classify one parsed request and queue it for the scheduler."""
        subscriber = self.classifier.classify_payload(head)
        if subscriber is None:
            self.stats.rejected_unknown_host += 1
            await self._refuse(writer, 404, "Not Found")
            return
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
            return
        pending = _PendingConnection(
            head, reader, writer, subscriber, enqueued_at=self._now()
        )
        queue = self.queues.get(subscriber)
        if queue is None or not queue.offer(pending):
            self.stats.dropped_queue_full += 1
            await self._refuse(
                writer, 503, "Service Unavailable", retry_after_s=1
            )
            return

    def _resume_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Wait for the next request on a kept-alive client connection."""
        task = asyncio.ensure_future(self._keepalive_loop(reader, writer))
        self._tasks.append(task)
        self._tasks = [t for t in self._tasks if not t.done()]

    async def _keepalive_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await asyncio.wait_for(
                read_request_head(reader),
                timeout=KEEPALIVE_IDLE_S,
            )
        except (
            asyncio.TimeoutError,
            HTTPError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            writer.close()
            return
        self.stats.keepalive_requests += 1
        await self._admit(head, reader, writer)

    # -- shedding -----------------------------------------------------------

    def _shed_queued(self) -> None:
        """503 every queued connection while no backend is healthy.

        Without this, connections admitted just before the last backend
        was ejected would sit in their queues indefinitely (``pick``
        returns None) and their clients would hang instead of failing
        fast.
        """
        for queue in self.queues:
            while queue.backlogged:
                pending = queue.take()
                self.stats.shed_no_backend += 1
                self._tm_shed.inc()
                self.failures.record(
                    self._now(), REQUEST_SHED, pending.subscriber
                )
                task = asyncio.ensure_future(
                    self._refuse(
                        pending.writer,
                        503,
                        "Service Unavailable",
                        retry_after_s=self._retry_after_s(),
                    )
                )
                self._tasks.append(task)

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
