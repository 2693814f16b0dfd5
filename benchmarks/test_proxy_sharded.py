"""BENCH_proxy_sharded — throughput of the multi-worker proxy deployment.

The same closed-loop keep-alive workload as ``BENCH_proxy``, but served
by a :class:`~repro.proxy.workers.WorkerSupervisor` running
``WORKERS`` ``SO_REUSEPORT`` worker processes behind one shared port,
with the hierarchical credit channel active.

Gating: the committed baseline pins the round timing (``median_s``),
the constants, and the ``workers`` configuration key — which
``scripts/bench_compare.py`` requires to match *exactly*, so a baseline
recorded at a different worker count fails loudly instead of being
silently compared.  The RPS/latency figures are exported as **strings**
(informational, ungated): unlike the single-proxy suite they scale with
the runner's core count, which a committed baseline cannot pin across
machines.
"""

import asyncio
import os

from repro.harness.loadgen import ProxyRig, closed_loop

from .conftest import print_banner

#: Serialized as BENCH_proxy_sharded.json regardless of the filename.
BENCHSTORE_SUITE = "proxy_sharded"

#: Worker processes behind the shared port (fixed — part of the gate).
WORKERS = 4

#: Closed-loop client population and per-round request budget.
CONCURRENCY = 16
REQUESTS = 600


def _closed_round(workers: int):
    async def go():
        rig = ProxyRig(workers=workers)
        port = await rig.start()
        supervisor = rig.supervisor
        try:
            await closed_loop(
                "127.0.0.1",
                port,
                site=rig.site,
                concurrency=4,
                total_requests=50,
                keep_alive=True,
            )
            result = await closed_loop(
                "127.0.0.1",
                port,
                site=rig.site,
                concurrency=CONCURRENCY,
                total_requests=REQUESTS,
                keep_alive=True,
            )
            alive = supervisor.alive_workers() if supervisor else 1
            restarts = supervisor.restarts if supervisor else 0
            rebalances = supervisor.allocator.rebalances if supervisor else 0
            accepts = {}
            if supervisor is not None:
                # Accept counters ride the periodic worker reports; give
                # the last report one beat to land before sampling.
                deadline = asyncio.get_event_loop().time() + 5.0
                while asyncio.get_event_loop().time() < deadline:
                    accepts = supervisor.accept_counts()
                    if sum(accepts.values()) >= CONCURRENCY:
                        break
                    await asyncio.sleep(0.1)
            return result, alive, restarts, rebalances, accepts
        finally:
            await rig.stop()

    return asyncio.run(go())


def test_closed_loop_keepalive_sharded(benchmark):
    """16 keep-alive clients against 4 SO_REUSEPORT worker processes."""
    cores = os.cpu_count() or 1
    single, _, _, _, _ = _closed_round(workers=1)

    outcome = {}

    def one_round():
        outcome["round"] = _closed_round(workers=WORKERS)

    benchmark.pedantic(one_round, rounds=3, warmup_rounds=1)
    result, alive, restarts, rebalances, accepts = outcome["round"]
    speedup = result.rps / single.rps if single.rps > 0 else 0.0
    accept_total = sum(accepts.values())
    accepting_workers = sum(1 for count in accepts.values() if count > 0)
    min_share = min(accepts.values()) / accept_total if accept_total else 0.0

    print_banner("BENCH_proxy_sharded: {} workers".format(WORKERS))
    print(
        "  rps {:.1f} ({}x single {:.1f})   p50 {:.2f} ms   p95 {:.2f} ms   "
        "rebalances {}   cores {}".format(
            result.rps,
            round(speedup, 2),
            single.rps,
            result.latency_s(0.5) * 1e3,
            result.latency_s(0.95) * 1e3,
            rebalances,
            cores,
        )
    )

    assert result.errors == 0
    assert result.completed == REQUESTS
    assert alive == WORKERS
    assert restarts == 0
    assert rebalances > 0  # the credit channel was exercised
    # SO_REUSEPORT accept balance: every worker's listening socket took
    # a share of the kernel's connection hash.
    assert accepting_workers == WORKERS, accepts

    # Gated numerics: the configuration must match the baseline exactly
    # (workers) or within the tight figure tolerance (constants).
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["requests"] = REQUESTS
    benchmark.extra_info["concurrency"] = CONCURRENCY
    # Real process-level parallelism needs this many cores; on smaller
    # runners bench_compare demotes this record's timing/perf gates to
    # advisory instead of committing a time-sliced number as truth.
    benchmark.extra_info["min_cores"] = WORKERS
    # Accept-balance counters (perf_: gated with the wide perf
    # tolerance — the kernel's reuseport hash is not deterministic, but
    # every worker taking a share is pinned by the assert above).
    benchmark.extra_info["perf_accepting_workers"] = accepting_workers
    benchmark.extra_info["perf_accept_min_share_pct"] = round(
        100.0 * min_share, 1
    )
    # Informational strings (ungated): these scale with the runner's
    # core count, which a committed baseline cannot pin.
    benchmark.extra_info["info_rps"] = "{:.1f}".format(result.rps)
    benchmark.extra_info["info_single_rps"] = "{:.1f}".format(single.rps)
    benchmark.extra_info["info_speedup"] = "{:.2f}".format(speedup)
    benchmark.extra_info["info_p50_ms"] = "{:.3f}".format(
        result.latency_s(0.5) * 1e3
    )
    benchmark.extra_info["info_p95_ms"] = "{:.3f}".format(
        result.latency_s(0.95) * 1e3
    )
    benchmark.extra_info["info_cpu_count"] = str(cores)
