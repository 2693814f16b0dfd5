"""Ablation A8 — delay-bounded admission (the response-time extension).

§3.1 names response time as a QoS metric the framework leaves open.
This extension bounds queueing delay by Little's law: capping a queue at
``reservation × target`` bounds the wait of every *admitted* request.
The sweep drives one overloaded subscriber with a range of delay targets
and checks that the measured p95 latency tracks the target while
throughput stays at the sustainable rate (what changes is *which*
requests are refused, not how many are served).
"""

from repro.core import GageCluster, Subscriber
from repro.harness import ParallelSweep
from repro.sim import Environment
from repro.workload import SyntheticWorkload

from .conftest import print_banner

DURATION = 8.0


def run(delay_target_s):
    env = Environment()
    subs = [
        Subscriber("a", 50, queue_capacity=4096, delay_target_s=delay_target_s)
    ]
    workload = SyntheticWorkload(rates={"a": 150.0}, duration_s=DURATION, file_bytes=2000)
    cluster = GageCluster(env, subs, {"a": workload.site_files("a")}, num_rpns=1)
    cluster.prewarm_caches()
    cluster.load_trace(workload.generate())
    cluster.run(DURATION)
    latencies = sorted(l for at, _h, l in cluster.latencies if at >= DURATION / 2)
    report = cluster.service_report("a", DURATION / 2, DURATION)
    return {
        "p95_s": latencies[int(0.95 * len(latencies))],
        "served_rps": report.served_rate,
        "dropped_rps": report.dropped_rate,
    }


def test_delay_target_sweep(benchmark):
    sweep = benchmark.pedantic(
        lambda: ParallelSweep(run, processes=0, delay_target_s=[0.2, 0.5, 1.0, None]).run(),
        rounds=1,
        iterations=1,
    )
    print_banner("Ablation A8: delay-bounded admission (response-time QoS)")
    print("  one subscriber, 50 GRPS reserved, offered 150/s on one RPN")
    print()
    print("  {:>10} {:>10} {:>10} {:>10}".format(
        "target", "p95 lat", "served/s", "dropped/s"))
    for target in (0.2, 0.5, 1.0, None):
        r = sweep.result(delay_target_s=target)
        print("  {:>10} {:>9.2f}s {:>10.1f} {:>10.1f}".format(
            "none" if target is None else "{:.1f}s".format(target),
            r["p95_s"], r["served_rps"], r["dropped_rps"],
        ))

    # p95 latency is monotone in the target and respects it (with slack
    # for in-service time; the queue drains faster than the reservation
    # because spare capacity also serves it).
    p95 = {t: sweep.result(delay_target_s=t)["p95_s"] for t in (0.2, 0.5, 1.0, None)}
    assert p95[0.2] < p95[0.5] < p95[1.0] < p95[None]
    for target in (0.2, 0.5, 1.0):
        assert p95[target] <= target * 1.3
    # Unbounded queueing blows far past any of the targets.
    assert p95[None] > 1.5
    # Throughput is the same everywhere — the bound changes who waits,
    # not how much is served.
    rates = [sweep.result(delay_target_s=t)["served_rps"] for t in (0.2, 0.5, 1.0, None)]
    assert max(rates) - min(rates) < 0.1 * max(rates)
