"""Hedged requests, deadlines, and the retry budget on the real-socket path.

The same failure archetypes as ``test_chaos.py`` — slow and hanging
backends — but with the hedging policy on: the client must get its
answer from the healthy backend at hedge speed, the loser must be
cancelled and refunded (conservation holds), and the retry/deadline
guard rails must fire their counters.
"""

import asyncio

import pytest

from repro.core import GageConfig, ProxyConfig, Subscriber
from repro.proxy import BackendServer, GageProxy

from .test_chaos import _get, free_port, start_hanging_server

SITES = {"a.com": {"/index.html": 500}}


def hedge_config(**overrides):
    defaults = dict(hedge_policy="fixed", hedge_delay_s=0.05, scheduling_cycle_s=0.005)
    defaults.update(overrides)
    return GageConfig(**defaults)


def hedge_proxy_config(**overrides):
    defaults = dict(connect_timeout_s=0.5, response_timeout_s=2.0, failure_threshold=100)
    defaults.update(overrides)
    return ProxyConfig(**defaults)


def assert_conserved(proxy):
    delta = proxy.accounting.conservation_delta()
    assert delta.cpu_s == pytest.approx(0.0, abs=1e-9)
    assert delta.disk_s == pytest.approx(0.0, abs=1e-9)
    assert delta.net_bytes == pytest.approx(0.0, abs=1e-3)


def test_hedge_rescues_slow_backend():
    """The primary dawdles for a full second; the hedge clone answers in
    hedge-delay time and the loser is cancelled and refunded."""

    async def main():
        slow = BackendServer(SITES, time_scale=0.0, extra_delay_fn=lambda h, p: 1.0)
        fast = BackendServer(SITES, time_scale=0.0)
        slow_port = await slow.start()
        fast_port = await fast.start()
        # "slowpoke" registers first: the idle least-load tie dispatches
        # the primary there, so the hedge path must rescue the request.
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"slowpoke": ("127.0.0.1", slow_port), "fast": ("127.0.0.1", fast_port)},
            config=hedge_config(),
            proxy_config=hedge_proxy_config(),
        )
        proxy_port = await proxy.start()
        loop = asyncio.get_event_loop()
        started = loop.time()
        head, body = await _get(proxy_port, "a.com", timeout=3.0)
        elapsed = loop.time() - started
        # Let the loser's background drain land before inspecting books.
        await asyncio.sleep(1.2)
        stats = proxy.stats
        assert_conserved(proxy)
        await proxy.stop()
        await slow.stop()
        await fast.stop()
        return head, body, elapsed, stats

    head, body, elapsed, stats = asyncio.run(main())
    assert head.status == 200
    assert len(body) == 500
    # Answered at hedge speed, not at the slow backend's pace.
    assert elapsed < 0.8
    assert stats.completed == 1
    assert stats.hedges_fired == 1
    assert stats.hedges_won == 1
    assert stats.hedges_cancelled == 1


def test_hedge_rescues_hanging_backend():
    """A wedged primary that never writes a byte: the clone wins and the
    loser attempt times out in the background without hanging anyone."""

    async def main():
        server, _opened, hang_port = await start_hanging_server()
        fast = BackendServer(SITES, time_scale=0.0)
        fast_port = await fast.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"wedged": ("127.0.0.1", hang_port), "fast": ("127.0.0.1", fast_port)},
            config=hedge_config(),
            proxy_config=hedge_proxy_config(response_timeout_s=0.5),
        )
        proxy_port = await proxy.start()
        head, body = await _get(proxy_port, "a.com", timeout=3.0)
        await asyncio.sleep(0.7)  # the loser's timeout reap completes
        stats = proxy.stats
        assert_conserved(proxy)
        await proxy.stop()
        await fast.stop()
        server.close()
        await server.wait_closed()
        return head, body, stats

    head, body, stats = asyncio.run(main())
    assert head.status == 200
    assert len(body) == 500
    assert stats.hedges_fired == 1
    assert stats.hedges_won == 1
    assert stats.hedges_cancelled == 1


def test_fast_primary_never_hedges():
    async def main():
        fast = BackendServer(SITES, time_scale=0.0)
        fast_port = await fast.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"only": ("127.0.0.1", fast_port)},
            config=hedge_config(hedge_delay_s=0.5),
            proxy_config=hedge_proxy_config(),
        )
        proxy_port = await proxy.start()
        heads = []
        for _ in range(3):
            head, _body = await _get(proxy_port, "a.com", timeout=3.0)
            heads.append(head)
        stats = proxy.stats
        assert_conserved(proxy)
        await proxy.stop()
        await fast.stop()
        return heads, stats

    heads, stats = asyncio.run(main())
    assert [head.status for head in heads] == [200, 200, 200]
    assert stats.completed == 3
    assert stats.hedges_fired == 0
    assert stats.hedges_cancelled == 0


@pytest.mark.parametrize("policy", ["fixed", "p95"])
def test_hedged_connect_failure_takes_the_retry(policy):
    """A tracked request whose only copy cannot connect takes the same
    one retry as an unhedged one, instead of ending in a 502."""

    async def main():
        backend = BackendServer(SITES, time_scale=0.0)
        good_port = await backend.start()
        # "bad" registers first, so the idle least-load tie sends the
        # primary to the closed port.
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"bad": ("127.0.0.1", free_port()), "good": ("127.0.0.1", good_port)},
            config=hedge_config(hedge_policy=policy),
            proxy_config=hedge_proxy_config(
                connect_timeout_s=0.2, retry_backoff_s=0.01
            ),
        )
        proxy_port = await proxy.start()
        head, body = await _get(proxy_port, "a.com", timeout=3.0)
        stats = proxy.stats
        assert_conserved(proxy)
        await proxy.stop()
        await backend.stop()
        return head, body, stats

    head, body, stats = asyncio.run(main())
    assert head.status == 200
    assert len(body) == 500
    assert stats.retried == 1
    assert stats.completed == 1
    assert stats.failed == 0


def test_adaptive_delay_is_per_proxy():
    """Two p95 proxies in one process: slow answers seen by one must not
    stretch the other's hedge delay."""

    async def main():
        slow = BackendServer(SITES, time_scale=0.0, extra_delay_fn=lambda h, p: 0.3)
        slow_port = await slow.start()
        busy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"slow": ("127.0.0.1", slow_port)},
            config=hedge_config(hedge_policy="p95"),
            proxy_config=hedge_proxy_config(),
        )
        busy_port = await busy.start()
        # Twelve 0.3 s answers: enough samples for busy's adaptive p95.
        await asyncio.gather(
            *[_get(busy_port, "a.com", timeout=3.0) for _ in range(12)]
        )
        assert busy.hedges.hedge_delay() > 0.25

        lagging = BackendServer(SITES, time_scale=0.0, extra_delay_fn=lambda h, p: 0.2)
        fast = BackendServer(SITES, time_scale=0.0)
        lagging_port = await lagging.start()
        fast_port = await fast.start()
        fresh = GageProxy(
            [Subscriber("a.com", 1000)],
            {"lagging": ("127.0.0.1", lagging_port), "fast": ("127.0.0.1", fast_port)},
            config=hedge_config(hedge_policy="p95"),
            proxy_config=hedge_proxy_config(),
        )
        fresh_port = await fresh.start()
        delay = fresh.hedges.hedge_delay()
        # fresh has no samples of its own: it hedges the 0.2 s primary
        # after its configured 0.05 s, not after busy's 0.3 s p95.
        head, _body = await _get(fresh_port, "a.com", timeout=3.0)
        await asyncio.sleep(0.3)
        stats = fresh.stats
        for server in (busy, fresh, slow, lagging, fast):
            await server.stop()
        return delay, head, stats

    delay, head, stats = asyncio.run(main())
    assert delay == pytest.approx(0.05)
    assert head.status == 200
    assert stats.hedges_fired == 1
    assert stats.hedges_won == 1


def test_retry_budget_exhaustion_blocks_retry():
    """With a zero retry budget the connect-failure retry is suppressed:
    the request fails fast and the exhaustion counter records why."""

    async def main():
        backend = BackendServer(SITES, time_scale=0.0)
        good_port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"bad": ("127.0.0.1", free_port()), "good": ("127.0.0.1", good_port)},
            proxy_config=ProxyConfig(
                connect_timeout_s=0.2,
                retry_backoff_s=0.01,
                failure_threshold=100,
                retry_budget=0,
            ),
        )
        proxy_port = await proxy.start()
        head, _body = await _get(proxy_port, "a.com", timeout=3.0)
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return head, stats

    head, stats = asyncio.run(main())
    assert head.status == 502
    assert stats.retried == 0
    assert stats.retry_budget_exhausted == 1
    assert stats.failed == 1


def test_retry_budget_token_spend_allows_one_retry():
    async def main():
        backend = BackendServer(SITES, time_scale=0.0)
        good_port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"bad": ("127.0.0.1", free_port()), "good": ("127.0.0.1", good_port)},
            proxy_config=ProxyConfig(
                connect_timeout_s=0.2,
                retry_backoff_s=0.01,
                failure_threshold=100,
                retry_budget=1,
                retry_budget_refill_per_s=0.0,
            ),
        )
        proxy_port = await proxy.start()
        heads = []
        for _ in range(2):
            head, _body = await _get(proxy_port, "a.com", timeout=3.0)
            heads.append(head)
            # Let the accounting flush drain "bad"'s outstanding load so
            # the idle least-load tie dispatches there again.
            await asyncio.sleep(0.25)
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return heads, stats

    heads, stats = asyncio.run(main())
    # First request spends the only token and is rescued; the second
    # finds the bucket empty and fails fast.
    assert heads[0].status == 200
    assert heads[1].status == 502
    assert stats.retried == 1
    assert stats.retry_budget_exhausted == 1


def test_deadline_expired_while_queued_gets_504():
    async def main():
        backend = BackendServer(SITES, time_scale=0.0)
        port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"only": ("127.0.0.1", port)},
            # The scheduler dispatches every ~10ms; a 1µs deadline is
            # always already expired by then.
            proxy_config=ProxyConfig(request_deadline_s=1e-6),
        )
        proxy_port = await proxy.start()
        head, _body = await _get(proxy_port, "a.com", timeout=3.0)
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return head, stats

    head, stats = asyncio.run(main())
    assert head.status == 504
    assert stats.deadline_expired == 1
    assert stats.completed == 0


def test_generous_deadline_does_not_interfere():
    async def main():
        backend = BackendServer(SITES, time_scale=0.0)
        port = await backend.start()
        proxy = GageProxy(
            [Subscriber("a.com", 1000)],
            {"only": ("127.0.0.1", port)},
            proxy_config=ProxyConfig(request_deadline_s=30.0),
        )
        proxy_port = await proxy.start()
        head, body = await _get(proxy_port, "a.com", timeout=3.0)
        stats = proxy.stats
        await proxy.stop()
        await backend.stop()
        return head, body, stats

    head, body, stats = asyncio.run(main())
    assert head.status == 200
    assert len(body) == 500
    assert stats.deadline_expired == 0
    assert stats.completed == 1
