"""Degenerate cases: a configuration that reduces to a simpler one must
behave exactly like it.

A hedge that never fires is hedging off.  ``hedge_max_clones=0`` is
rejected by config validation, so the never-firing hedge is a delay no
run reaches (1e9 s).  The hedge manager still tracks every request, so
the relation checks that tracking alone — no clone charged, nothing
cancelled or refunded — leaves every charge, completion and byte as it
was, on the simulator and on real sockets.
"""

import asyncio
from collections import Counter
from pathlib import Path

from repro.core import GageConfig, Subscriber
from repro.harness.golden import accounting_digest, golden_fig3_cluster
from repro.proxy import BackendServer, GageProxy

from ..proxy.test_keepalive import _request

GOLDEN_FILE = Path(__file__).parents[1] / "integration" / "golden_fig3.sha256"
NEVER_S = 1e9


def test_never_firing_hedge_is_hedging_off_in_the_simulator():
    off = golden_fig3_cluster()
    never = golden_fig3_cluster(
        config=GageConfig(
            accounting_cycle_s=0.1,
            spare_policy="none",
            hedge_policy="fixed",
            hedge_delay_s=NEVER_S,
        )
    )
    assert never.rdn.hedges is not None and off.rdn.hedges is None
    committed = GOLDEN_FILE.read_text().strip()
    assert accounting_digest(off) == committed
    assert accounting_digest(never) == committed
    assert never.env.events_dispatched == off.env.events_dispatched
    assert never.rdn.hedges._tm_fired.value == 0


def serve_twenty(config):
    """20 keep-alive GETs through a two-backend proxy: what the client saw,
    the proxy's counters, and the completions billed and the dispatches
    charged per backend."""

    async def main():
        backends, addrs = [], {}
        for name in ("b0", "b1"):
            backend = BackendServer({"a.com": {"/index.html": 700}}, time_scale=0.0)
            addrs[name] = ("127.0.0.1", await backend.start())
            backends.append(backend)
        proxy = GageProxy([Subscriber("a.com", 1000)], addrs, config=config)
        billed = Counter()
        record = proxy._record

        def counting_record(backend_id, subscriber, usage, completed):
            billed[backend_id] += completed
            record(backend_id, subscriber, usage, completed)

        proxy._record = counting_record
        port = await proxy.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        answers = []
        for _ in range(20):
            head, body = await _request(reader, writer, "a.com")
            answers.append((head.status, body))
        writer.close()
        stats = proxy.stats
        charged = {name: proxy.node_scheduler.get(name).dispatched for name in addrs}
        await proxy.stop()
        for backend in backends:
            await backend.stop()
        return answers, stats, billed, charged

    return asyncio.run(main())


def test_never_firing_hedge_is_hedging_off_on_the_proxy():
    config = dict(scheduling_cycle_s=0.005, accounting_cycle_s=30.0)
    off = serve_twenty(GageConfig(**config))
    never = serve_twenty(
        GageConfig(hedge_policy="fixed", hedge_delay_s=NEVER_S, **config)
    )
    answers, stats, billed, charged = off
    assert [status for status, _ in answers] == [200] * 20
    assert never[0] == answers
    assert never[1] == stats
    assert never[2] == billed
    assert never[3] == charged
    assert sum(billed.values()) == sum(charged.values()) == 20
