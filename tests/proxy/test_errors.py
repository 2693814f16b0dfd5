"""Error-path tests for the asyncio deployment."""

import asyncio

from repro.core import GageConfig, ProxyConfig, Subscriber
from repro.proxy import BackendServer, GageProxy
from repro.proxy.http import read_response_head
from repro.resources import ResourceVector


async def _get(port, site, path="/index.html"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        "GET {} HTTP/1.0\r\nHost: {}\r\n\r\n".format(path, site).encode("latin-1")
    )
    await writer.drain()
    head = await read_response_head(reader)
    body = b""
    while len(body) < head.content_length:
        chunk = await reader.read(65536)
        if not chunk:
            break
        body += chunk
    writer.close()
    return head, body


def test_dead_backend_yields_502():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 100}}, time_scale=0.0)
        port = await backend.start()
        await backend.stop()  # the backend dies; the proxy keeps its address
        proxy = GageProxy(
            [Subscriber("a.com", 1000)], {"backend0": ("127.0.0.1", port)}
        )
        proxy_port = await proxy.start()
        head, _ = await _get(proxy_port, "a.com")
        stats = proxy.stats
        await proxy.stop()
        return head, stats

    head, stats = asyncio.run(main())
    assert head.status == 502
    assert stats.failed == 1
    assert stats.completed == 0


def test_queue_full_yields_503():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 100}}, time_scale=0.0)
        port = await backend.start()
        # Scheduler cycle of 10s: nothing dispatches during the test, so
        # the 1-deep queue overflows on the second request.
        config = GageConfig(scheduling_cycle_s=10.0)
        proxy = GageProxy(
            [Subscriber("a.com", 1000, queue_capacity=1)],
            {"backend0": ("127.0.0.1", port)},
            config=config,
        )
        proxy_port = await proxy.start()

        async def bare_request():
            reader, writer = await asyncio.open_connection("127.0.0.1", proxy_port)
            writer.write(b"GET /index.html HTTP/1.0\r\nHost: a.com\r\n\r\n")
            await writer.drain()
            return reader, writer

        r1, w1 = await bare_request()  # occupies the queue
        reader, writer = await bare_request()  # overflows
        head = await read_response_head(reader)
        stats = proxy.stats
        writer.close()
        w1.close()
        await proxy.stop()
        await backend.stop()
        return head, stats

    head, stats = asyncio.run(main())
    assert head.status == 503
    assert stats.dropped_queue_full == 1


def test_backend_404_relayed_through_proxy():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 100}}, time_scale=0.0)
        port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)], {"backend0": ("127.0.0.1", port)}
        )
        proxy_port = await proxy.start()
        head, _ = await _get(proxy_port, "a.com", path="/missing.html")
        await proxy.stop()
        await backend.stop()
        return head

    head = asyncio.run(main())
    assert head.status == 404


def test_garbage_request_closes_connection():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 100}}, time_scale=0.0)
        port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)], {"backend0": ("127.0.0.1", port)}
        )
        proxy_port = await proxy.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", proxy_port)
        writer.write(b"NOT-HTTP\x00\x01\r\n\r\n")
        await writer.drain()
        data = await reader.read()
        writer.close()
        await proxy.stop()
        await backend.stop()
        return data

    data = asyncio.run(main())
    assert data == b""  # closed without a response, no crash


async def _held_request(proxy):
    """Queue one request while the scheduler tick is held; returns the
    client's socket and the task serving its connection."""
    proxy.scheduler.run_cycle = lambda: []  # the tick runs, dispatches nothing
    port = await proxy.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /index.html HTTP/1.1\r\nHost: a.com\r\n\r\n")
    await writer.drain()
    while not proxy.queues.get("a.com").backlogged:
        await asyncio.sleep(0.005)
    (connection,) = [
        task for task in proxy._tasks if task.get_coro().__name__ == "_handle"
    ]
    return reader, writer, connection


def test_dispatch_to_a_connection_gone_while_queued_settles_its_charge():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 100}}, time_scale=0.0)
        backend_port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)], {"backend0": ("127.0.0.1", backend_port)}
        )
        run_cycle = proxy.scheduler.run_cycle
        _reader, writer, connection = await _held_request(proxy)
        connection.cancel()
        await asyncio.wait([connection])
        for _ in range(10):  # credit starts at zero; a few refills dispatch
            run_cycle()
            if proxy.stats.dispatched:
                break
        proxy.scheduler.apply_feedback(proxy._flush_bucket("backend0", 0.0, 1.0))
        stats = proxy.stats
        accounting = proxy.accounting
        writer.close()
        await proxy.stop()
        await backend.stop()
        return stats, accounting

    stats, accounting = asyncio.run(main())
    assert stats.dispatched == 1
    assert stats.failed == 1  # counted once, as a zero-usage completion
    assert stats.completed == 0
    assert accounting.pending_total() == ResourceVector.ZERO
    assert accounting.conservation_delta() == ResourceVector.ZERO


def test_queued_request_shed_is_refused_by_its_connection_task():
    async def main():
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"backend0": ("127.0.0.1", 1)},
            proxy_config=ProxyConfig(probe_interval_s=30.0),
        )
        reader, writer, connection = await _held_request(proxy)
        proxy.node_scheduler.mark_down("backend0", at_s=0.0)
        proxy._shed_queued()
        head = await read_response_head(reader)
        await asyncio.wait([connection], timeout=1.0)
        writer.close()
        stats = proxy.stats
        await proxy.stop()
        return head, connection.done(), stats

    head, closed, stats = asyncio.run(main())
    assert head.status == 503
    assert head.headers.get("retry-after") == "30"
    assert closed  # the connection's task wrote the 503 and ended
    assert stats.shed_no_backend == 1
    assert stats.dispatched == 0
