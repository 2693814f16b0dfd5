"""End-to-end tests of the asyncio deployment on localhost sockets."""

import asyncio

import pytest

from repro.core import GageConfig, Subscriber
from repro.proxy import BackendServer, GageProxy
from repro.proxy.demo import run_demo
from repro.proxy.http import read_response_head


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


def test_backend_serves_files_with_usage_header():
    async def main():
        backend = BackendServer(
            {"a.com": {"/index.html": 1234}}, time_scale=0.0
        )
        port = await backend.start()
        head, body = await _get(port, "a.com")
        await backend.stop()
        return head, body

    head, body = asyncio.run(main())
    assert head.status == 200
    assert len(body) == 1234
    cpu, disk, net = head.usage()
    assert cpu > 0
    assert net == 1234


def test_backend_404_for_unknown_path():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 10}}, time_scale=0.0)
        port = await backend.start()
        head, _body = await _get(port, "a.com", path="/missing")
        await backend.stop()
        return head

    head = asyncio.run(main())
    assert head.status == 404


def test_proxy_relays_and_strips_usage_header():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 5000}}, time_scale=0.0)
        backend_port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"backend0": ("127.0.0.1", backend_port)},
        )
        port = await proxy.start()
        head, body = await _get(port, "a.com")
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return head, body, stats

    head, body, stats = asyncio.run(main())
    assert head.status == 200
    assert len(body) == 5000
    assert head.usage() is None  # the proxy strips the accounting header
    assert stats.completed == 1
    assert stats.bytes_relayed == 5000


def test_proxy_rejects_unknown_host():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 10}}, time_scale=0.0)
        backend_port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"backend0": ("127.0.0.1", backend_port)},
        )
        port = await proxy.start()
        head, _ = await _get(port, "unknown.com")
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return head, stats

    head, stats = asyncio.run(main())
    assert head.status == 404
    assert stats.rejected_unknown_host == 1


def test_proxy_feeds_usage_into_accounting():
    async def main():
        backend = BackendServer({"a.com": {"/index.html": 2000}}, time_scale=0.0)
        backend_port = await backend.start()
        config = GageConfig(accounting_cycle_s=0.05)
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"backend0": ("127.0.0.1", backend_port)},
            config=config,
        )
        port = await proxy.start()
        for _ in range(5):
            await _get(port, "a.com")
        await asyncio.sleep(0.15)  # two accounting cycles
        account = proxy.accounting.account("a.com")
        await proxy.stop()
        await backend.stop()
        return account

    account = asyncio.run(main())
    assert account.reported_complete == 5
    assert account.measured_usage_total.net_bytes == 5 * 2000


def test_proxy_scheduler_walks_only_active_subscribers():
    """50 idle subscribers settle out of the proxy's WRR walk; the one
    with a standing backlog stays — the proxy is on the O(active) path."""

    async def main():
        backend = BackendServer({"busy.com": {"/index.html": 100}}, time_scale=0.0)
        backend_port = await backend.start()
        idle = [Subscriber("idle{}.com".format(i), 100) for i in range(50)]
        # 1 GRPS and no spare: a burst of 5 requests stays queued for seconds.
        proxy = GageProxy(
            idle + [Subscriber("busy.com", 1)],
            {"backend0": ("127.0.0.1", backend_port)},
            config=GageConfig(spare_policy="none"),
        )
        port = await proxy.start()
        clients = [asyncio.ensure_future(_get(port, "busy.com")) for _ in range(5)]
        deadline = asyncio.get_event_loop().time() + 3.0
        while (
            proxy.scheduler.active_count() != 1
            and asyncio.get_event_loop().time() < deadline
        ):
            await asyncio.sleep(0.02)
        active = proxy.scheduler.active_count()
        backlog = len(proxy.queues.get("busy.com"))
        for client in clients:
            client.cancel()
        await asyncio.gather(*clients, return_exceptions=True)
        await proxy.stop()
        await backend.stop()
        return proxy, active, backlog

    proxy, active, backlog = asyncio.run(main())
    assert backlog > 0
    assert active == 1
    assert proxy.queues.table is proxy.accounting.table


def test_reading_balances_wakes_no_settled_subscriber():
    subscribers = [Subscriber("s{}.com".format(i), 100) for i in range(10)]
    proxy = GageProxy(subscribers, {"backend0": ("127.0.0.1", 1)})
    for _ in range(10):  # all idle: everyone reaches the cap and settles
        proxy.scheduler.run_cycle()
    assert proxy.scheduler.active_count() == 0
    balances = proxy.balances()
    assert sorted(balances) == sorted(sub.name for sub in subscribers)
    assert all(balance.cpu_s > 0 for balance in balances.values())
    assert proxy.accounting.drain_dirty() == []  # nobody to re-visit next cycle


def test_demo_isolation_under_overload():
    """The real-socket deployment preserves the QoS property: a site
    within its reservation is unaffected by an overloaded neighbour."""
    result = asyncio.run(
        run_demo(
            reservations={"gold.com": 120.0, "flood.com": 20.0},
            rates={"gold.com": 50.0, "flood.com": 120.0},
            duration_s=2.5,
            num_backends=2,
            time_scale=0.2,
            queue_capacity=64,
        )
    )
    gold_done = result.completed.get("gold.com", 0)
    gold_issued = result.issued.get("gold.com", 1)
    # gold (under its reservation) completes essentially everything.
    assert gold_done >= 0.95 * gold_issued
    # flood (6x its reservation) is throttled: completions + refusals
    # bounded; its latency exceeds gold's (queueing behind its credit).
    assert result.mean_latency_s("flood.com") > result.mean_latency_s("gold.com")


def test_proxy_requires_backends():
    with pytest.raises(ValueError):
        GageProxy([Subscriber("a.com", 10)], {})


def test_scheduling_tick_keeps_its_configured_rate():
    """Each scheduling cycle grants one cycle's worth of every
    reservation, so the tick rate is the guaranteed rate: the proxy's
    tick sleeps to fixed due times and never drifts below 1/cycle."""
    cycle = 0.002

    async def main():
        proxy = GageProxy(
            [Subscriber("a.com", 10)],
            {"backend0": ("127.0.0.1", 1)},
            config=GageConfig(scheduling_cycle_s=cycle),
        )
        loop = asyncio.get_running_loop()
        await proxy.start()
        started = loop.time()
        await asyncio.sleep(0.5)
        cycles, elapsed = proxy.scheduler.cycles, loop.time() - started
        await proxy.stop()
        return cycles, elapsed

    cycles, elapsed = asyncio.run(main())
    assert cycles >= 0.98 * elapsed / cycle
