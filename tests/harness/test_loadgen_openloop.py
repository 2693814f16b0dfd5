"""Open-loop load generation under misbehaving backends.

The open-loop driver fires at a fixed rate regardless of completions, so
a stalled or refusing server must never wedge it: the drain window
bounds the total wall time, unanswered requests are abandoned, and
failed ones are counted as errors.  With the hedging proxy in the path,
every request still yields exactly one client-side sample — cancelled
hedge losers are suppressed server-side and can never double-count.
"""

import asyncio

import pytest

from repro.core import GageConfig, ProxyConfig, Subscriber
from repro.harness.loadgen import open_loop
from repro.proxy import BackendServer, GageProxy

from ..proxy.test_chaos import free_port, start_hanging_server

SITES = {"a.com": {"/index.html": 500}}


def test_open_loop_refusing_server_counts_errors():
    """Nothing listens: every shot fails fast and is counted."""

    async def main():
        return await open_loop(
            "127.0.0.1",
            free_port(),
            site="a.com",
            rate=40.0,
            duration_s=0.25,
            drain_s=1.0,
        )

    result = asyncio.run(main())
    assert result.completed == 0
    assert result.errors >= 10  # ~0.25s at 40/s
    assert result.latencies_s == []


def test_open_loop_hanging_server_returns_within_drain_window():
    """A server that accepts and never answers: the generator abandons
    the in-flight shots at the drain deadline instead of hanging."""

    async def main():
        server, _opened, port = await start_hanging_server()
        loop = asyncio.get_event_loop()
        started = loop.time()
        result = await open_loop(
            "127.0.0.1",
            port,
            site="a.com",
            rate=20.0,
            duration_s=0.25,
            drain_s=0.5,
        )
        elapsed = loop.time() - started
        server.close()
        await server.wait_closed()
        return result, elapsed

    result, elapsed = asyncio.run(main())
    assert result.completed == 0
    # duration + drain plus scheduling slack — bounded, never 3600s.
    assert elapsed < 3.0
    assert result.duration_s == pytest.approx(elapsed, abs=0.5)


def test_open_loop_through_hedging_proxy_has_no_duplicate_samples():
    """Hedged requests answer once: client samples, proxy completions,
    and the credit ledger all agree that no request counted twice."""

    async def main():
        slow = BackendServer(SITES, time_scale=0.0, extra_delay_fn=lambda h, p: 0.3)
        fast = BackendServer(SITES, time_scale=0.0)
        slow_port = await slow.start()
        fast_port = await fast.start()
        proxy = GageProxy(
            [Subscriber("a.com", 100_000)],
            {"slowpoke": ("127.0.0.1", slow_port), "fast": ("127.0.0.1", fast_port)},
            config=GageConfig(
                hedge_policy="fixed",
                hedge_delay_s=0.05,
                scheduling_cycle_s=0.005,
            ),
            proxy_config=ProxyConfig(failure_threshold=100),
        )
        proxy_port = await proxy.start()
        result = await open_loop(
            "127.0.0.1",
            proxy_port,
            site="a.com",
            rate=30.0,
            duration_s=0.5,
            drain_s=3.0,
        )
        await asyncio.sleep(0.5)  # let loser drains and reaps settle
        stats = proxy.stats
        delta = proxy.accounting.conservation_delta()
        await proxy.stop()
        await slow.stop()
        await fast.stop()
        return result, stats, delta

    result, stats, delta = asyncio.run(main())
    assert result.errors == 0
    assert result.completed >= 10
    # One sample per completed request, never one per hedge copy.
    assert len(result.latencies_s) == result.completed
    assert sum(result.status_counts.values()) == result.completed
    assert stats.completed == result.completed
    # Some requests landed on the slow backend and were rescued.
    assert stats.hedges_fired > 0
    assert stats.hedges_cancelled == stats.hedges_fired
    assert delta.cpu_s == pytest.approx(0.0, abs=1e-9)
    assert delta.disk_s == pytest.approx(0.0, abs=1e-9)
    assert delta.net_bytes == pytest.approx(0.0, abs=1e-3)
