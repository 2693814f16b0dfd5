"""BENCH_proxy_hedged — tail-latency hedging under heavy-tailed backends.

Two backends serve the same site, each adding a seeded Pareto-distributed
extra delay to every response — the heavy tail one slow replica
contributes in a real cluster.  The same closed-loop workload runs twice:
with ``hedge_policy="off"`` (the paper-fidelity default) and with the
fixed-delay hedging policy.  Hedging must cut p99 by at least
``MIN_P99_RATIO`` while the credit ledger stays exactly conserved —
tail-latency warfare cannot be paid for with broken guarantees.

The guarantee side is then checked in simulation: a fig3-style deviation
run with hedging firing thousands of clones must stay inside the paper's
8% deviation bound at the 4 s averaging interval.

Gating: the deviation figure and the constants are fixed-seed and gated
tight; the p99 numbers are machine-dependent and exported as ``perf_``
(gated at the forgiving timing tolerance).  The ≥``MIN_P99_RATIO``
acceptance itself is asserted in-benchmark.
"""

import asyncio
import random

from repro.core import GageConfig, ProxyConfig, Subscriber
from repro.harness import run_deviation_experiment
from repro.harness.loadgen import closed_loop
from repro.proxy import BackendServer, GageProxy

from .conftest import print_banner

#: Serialized as BENCH_proxy_hedged.json regardless of the filename.
BENCHSTORE_SUITE = "proxy_hedged"

SITE = "bench.example"
SITES = {SITE: {"/index.html": 2048}}

#: Closed-loop client population and per-round request budget.
CONCURRENCY = 8
REQUESTS = 600

#: Pareto tail of the per-request backend delay (seconds).
TAIL_SCALE_S = 0.002
TAIL_ALPHA = 1.05
TAIL_CAP_S = 0.6

#: Clone a request whose response head is this late.
HEDGE_DELAY_S = 0.02

#: Hedging must cut p99 at least this much (the ISSUE acceptance bar).
MIN_P99_RATIO = 2.0

#: The paper's Figure-3 bound at the 4 s averaging interval: hedging on
#: must not push deviation past what §4.1 allows for 100 ms cycles.
MAX_HEDGED_DEVIATION_PCT = 8.0


def pareto_delays(seed, count=211):
    """A fixed, seeded cycle of heavy-tailed delays (seconds)."""
    rng = random.Random(seed)
    return [
        min(TAIL_CAP_S, TAIL_SCALE_S * (rng.random() ** (-1.0 / TAIL_ALPHA) - 1.0))
        for _ in range(count)
    ]


def tail_fn(seed):
    """An ``extra_delay_fn`` cycling the seeded delay sequence, so both
    the hedged and unhedged rounds face the same offered tail."""
    delays = pareto_delays(seed)
    state = {"i": 0}

    def fn(host, path):
        delay = delays[state["i"] % len(delays)]
        state["i"] += 1
        return delay

    return fn


def _round(hedge_policy):
    """One closed-loop round against two heavy-tailed backends."""

    async def go():
        backends, addrs = [], {}
        for index, seed in enumerate((0xA1, 0xB2)):
            backend = BackendServer(SITES, time_scale=0.0, extra_delay_fn=tail_fn(seed))
            port = await backend.start()
            backends.append(backend)
            addrs["backend{}".format(index)] = ("127.0.0.1", port)
        config = GageConfig(
            hedge_policy=hedge_policy,
            hedge_delay_s=HEDGE_DELAY_S,
            scheduling_cycle_s=0.002,
            accounting_cycle_s=0.05,
            dispatch_window_s=60.0,
        )
        proxy = GageProxy(
            [Subscriber(SITE, 100_000.0, queue_capacity=4096)],
            addrs,
            config=config,
            proxy_config=ProxyConfig(failure_threshold=1000),
        )
        port = await proxy.start()
        try:
            result = await closed_loop(
                "127.0.0.1",
                port,
                site=SITE,
                concurrency=CONCURRENCY,
                total_requests=REQUESTS,
                keep_alive=True,
            )
            await asyncio.sleep(0.3)  # let loser drains settle the books
            stats = proxy.stats
            delta = proxy.accounting.conservation_delta()
        finally:
            await proxy.stop()
            for backend in backends:
                await backend.stop()
        return result, stats, delta

    return asyncio.run(go())


def test_hedging_cuts_the_tail(benchmark):
    """600 keep-alive requests, heavy-tailed backends, hedging off vs on."""
    unhedged, stats_off, delta_off = _round("off")

    outcome = {}

    def one_round():
        outcome["round"] = _round("fixed")

    benchmark.pedantic(one_round, rounds=3, warmup_rounds=1)
    hedged, stats_on, delta_on = outcome["round"]

    p99_off = unhedged.latency_s(0.99)
    p99_on = hedged.latency_s(0.99)
    p999_off = unhedged.latency_s(0.999)
    p999_on = hedged.latency_s(0.999)
    ratio = p99_off / p99_on if p99_on > 0 else 0.0

    print_banner("BENCH_proxy_hedged: Pareto tail, hedge delay {:.0f} ms".format(
        HEDGE_DELAY_S * 1e3
    ))
    print(
        "  p99 {:.1f} ms -> {:.1f} ms ({:.1f}x)   p999 {:.1f} ms -> {:.1f} ms   "
        "hedges fired {} won {}".format(
            p99_off * 1e3,
            p99_on * 1e3,
            ratio,
            p999_off * 1e3,
            p999_on * 1e3,
            stats_on.hedges_fired,
            stats_on.hedges_won,
        )
    )

    # Every request answered exactly once, in both modes.
    for result, stats in ((unhedged, stats_off), (hedged, stats_on)):
        assert result.errors == 0
        assert result.completed == REQUESTS
        assert len(result.latencies_s) == REQUESTS
        assert stats.completed == REQUESTS
    assert stats_off.hedges_fired == 0
    assert stats_on.hedges_fired > 0
    assert stats_on.hedges_cancelled == stats_on.hedges_fired
    # Conservation: cancellations refund, so the ledger balances exactly.
    for delta in (delta_off, delta_on):
        assert abs(delta.cpu_s) < 1e-9
        assert abs(delta.disk_s) < 1e-9
        assert abs(delta.net_bytes) < 1e-3
    assert ratio >= MIN_P99_RATIO, (
        "hedging cut p99 only {:.2f}x ({:.1f} ms -> {:.1f} ms), "
        "need >= {}x".format(ratio, p99_off * 1e3, p99_on * 1e3, MIN_P99_RATIO)
    )

    # Gated constants (exact-seed workload shape) and machine-dependent
    # perf figures (gated at the forgiving timing tolerance).
    benchmark.extra_info["requests"] = REQUESTS
    benchmark.extra_info["concurrency"] = CONCURRENCY
    benchmark.extra_info["hedge_delay_ms"] = HEDGE_DELAY_S * 1e3
    benchmark.extra_info["perf_p99_unhedged_ms"] = round(p99_off * 1e3, 3)
    benchmark.extra_info["perf_p99_hedged_ms"] = round(p99_on * 1e3, 3)
    benchmark.extra_info["perf_p99_ratio"] = round(ratio, 2)
    benchmark.extra_info["info_p999_unhedged_ms"] = "{:.3f}".format(p999_off * 1e3)
    benchmark.extra_info["info_p999_hedged_ms"] = "{:.3f}".format(p999_on * 1e3)
    benchmark.extra_info["info_hedges_fired"] = str(stats_on.hedges_fired)
    benchmark.extra_info["info_hedges_won"] = str(stats_on.hedges_won)


def test_hedged_deviation_stays_in_tolerance(benchmark):
    """Fig3-style guarantee check with hedging firing under saturation.

    A 5 ms hedge delay against saturated queues makes the cloning path
    fire thousands of times (verified via the registry counter), yet the
    deviation from reservation at the 4 s averaging interval must stay
    inside the paper's 8% bound for 100 ms accounting cycles.
    """
    from repro.telemetry.registry import get_registry

    fired_counter = get_registry().counter("repro.core.hedge.fired")
    fired_before = fired_counter.value

    curve = benchmark.pedantic(
        lambda: run_deviation_experiment(
            0.1,
            intervals_s=[4.0, 10.0],
            duration_s=42.0,
            hedge_policy="fixed",
            hedge_delay_s=0.005,
        ),
        rounds=1,
        iterations=1,
    )
    fired = fired_counter.value - fired_before

    print_banner("BENCH_proxy_hedged: fig3 deviation with hedging on")
    for interval, deviation in curve.series():
        print("  interval {:>4.0f}s: {:6.2f}%".format(interval, deviation))
    print("  hedge clones fired: {:.0f}".format(fired))

    assert fired > 1000  # the hedging path was really exercised
    assert curve.by_interval[4.0] < MAX_HEDGED_DEVIATION_PCT
    assert curve.by_interval[10.0] < MAX_HEDGED_DEVIATION_PCT
    benchmark.extra_info["dev_4s_hedged_percent"] = round(curve.by_interval[4.0], 2)
    benchmark.extra_info["dev_10s_hedged_percent"] = round(curve.by_interval[10.0], 2)
