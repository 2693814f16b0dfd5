#!/usr/bin/env python
"""Profile a named benchmark scenario and print its hot spots.

Usage::

    python scripts/profile_run.py SCENARIO [--top 25] [--sort cumulative]
                                  [--out profile.pstats]

Runs one of the named scenarios below under :mod:`cProfile`, prints the
engine's event count and peak heap depth (``repro.sim.events_dispatched``
and ``repro.sim.queue_depth_peak``) and the profiled Python call count,
then the top-N entries, so a performance PR starts from counts and data
rather than guesses.
``--out`` additionally saves the raw stats for later digging with
``pstats`` or ``snakeviz``.

Scenarios mirror the benchmark suites: ``fig3-synthetic`` and
``fig3-specweb`` are the Figure 3 deviation runs, ``golden`` is the
committed golden-digest configuration, ``packet-splice`` is the
packet-fidelity golden configuration run for longer (three RPNs, one
subscriber flooding past its queue) — the one scenario that enters
``repro.net`` — ``engine`` is a pure
event-loop stress (no cluster) isolating the simulator core, and
``proxy`` drives a closed-loop keep-alive workload through the real
localhost deployment (the data-plane hot path), and ``proxy-sharded``
drives the same workload through the multi-worker ``SO_REUSEPORT``
deployment (note: worker processes profile their own time — this
profiles the supervisor + load-generator side).  ``parked`` registers 2 000
idle tenants, lets them park, and profiles the end-of-run ``sync()``
that replays their missed refills — the parked-replay cost on its own.
``fig3-calls`` is the 10 s fig-3 run of
``tests/integration/test_fig3_call_budget.py`` and also prints calls per
completed request, the figure that test holds to its ceiling.
``packet-calls`` is the 6 s packet-fidelity golden run of
``tests/integration/test_packet_call_budget.py``, set-up included, and
prints the same figures that test checks: calls per completed request
and the address hash/compare, link ``total_len`` and ``Packet.copy``
``setattr`` calls it holds at zero.
``hosting`` builds the benchmark's ``sim_flow_many_subs`` cluster (2 000
subscribers × 8 RPNs, one worker per site) under :mod:`tracemalloc` and
prints the build's traced bytes and gc-tracked objects, in total and per
(site, node) hosting, the exact cost of hosting one more site on one
node, and the gen-0/1/2 collections during the build and during the run.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import os
import tracemalloc

# The script must run from a checkout without installation.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

SORT_KEYS = ("cumulative", "tottime", "ncalls")


def scenario_fig3_synthetic():
    from repro.harness import run_deviation_experiment

    run_deviation_experiment(
        accounting_cycle_s=2.0, workload="synthetic", duration_s=20.0
    )


def scenario_fig3_specweb():
    from repro.harness import run_deviation_experiment

    run_deviation_experiment(
        accounting_cycle_s=2.0, workload="specweb", duration_s=20.0
    )


def scenario_golden():
    from repro.harness import golden_fig3_digest

    golden_fig3_digest()


def scenario_packet_splice():
    from repro.harness import golden_packet_cluster

    cluster = golden_packet_cluster(duration_s=10.0)
    stats = cluster.fleet.stats
    print(
        "packet-splice scenario: {} completed, {} refused, {} engine events, "
        "{} frames switched".format(
            stats.completed,
            stats.failed,
            cluster.env.events_dispatched,
            sum(switch.forwarded + switch.flooded for switch in cluster.switches),
        )
    )


def scenario_engine():
    from repro.sim import Environment

    env = Environment()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 400_000:
            env.call_later(0.001, tick)

    env.call_later(0.0, tick)
    env.run()


def scenario_proxy():
    import asyncio

    from repro.harness.loadgen import ProxyRig, closed_loop

    async def run():
        rig = ProxyRig()
        port = await rig.start()
        try:
            result = await closed_loop(
                "127.0.0.1",
                port,
                site=rig.site,
                concurrency=16,
                total_requests=4000,
                keep_alive=True,
            )
        finally:
            await rig.stop()
        print(
            "proxy scenario: {} completed, {:.1f} rps, p95 {:.2f} ms".format(
                result.completed,
                result.rps,
                result.latency_s(0.95) * 1000.0,
            )
        )

    asyncio.run(run())


def scenario_proxy_sharded():
    import asyncio
    import os as _os

    from repro.harness.loadgen import ProxyRig, closed_loop

    workers = min(4, _os.cpu_count() or 1)

    async def run():
        rig = ProxyRig(workers=max(2, workers))
        port = await rig.start()
        supervisor = rig.supervisor
        try:
            result = await closed_loop(
                "127.0.0.1",
                port,
                site=rig.site,
                concurrency=16,
                total_requests=4000,
                keep_alive=True,
            )
        finally:
            await rig.stop()
        print(
            "proxy-sharded scenario: {} workers, {} completed, {:.1f} rps, "
            "p95 {:.2f} ms, {} rebalances".format(
                rig.workers,
                result.completed,
                result.rps,
                result.latency_s(0.95) * 1000.0,
                supervisor.allocator.rebalances,
            )
        )

    asyncio.run(run())


def scenario_parked():
    from repro.core import GageCluster, GageConfig, Subscriber
    from repro.sim import Environment

    names = ["tenant{:04d}".format(i) for i in range(2000)]
    cluster = GageCluster(
        Environment(),
        [Subscriber(name, 0.1) for name in names],
        {name: {} for name in names},
        num_rpns=8,
        config=GageConfig(accounting_cycle_s=0.25),
        fidelity="flow",
        workers_per_site=1,
    )
    # Everyone parks in the first cycle; run() ends with the sync that
    # replays the 274 refills each tenant missed since.
    cluster.run(2.75)
    scheduler = cluster.rdn.scheduler
    print(
        "parked scenario: {} tenants, {} in the walk after {} cycles".format(
            len(names), scheduler.active_count(), scheduler.cycles
        )
    )


def build_fig3_calls():
    from repro.core import GageCluster, GageConfig, Subscriber
    from repro.sim import Environment
    from repro.workload import SyntheticWorkload

    names = ["site{}".format(i + 1) for i in range(4)]
    workload = SyntheticWorkload(
        rates={name: 1.5 * 150.0 / 3.07 for name in names},
        duration_s=10.0,
        file_bytes=6 * 1024,
        arrival="poisson",
        seed=12,
    )
    cluster = GageCluster(
        Environment(),
        [Subscriber(name, 150.0, queue_capacity=256) for name in names],
        {name: workload.site_files(name) for name in names},
        num_rpns=8,
        config=GageConfig(accounting_cycle_s=1.0, spare_policy="none"),
        fidelity="flow",
        rpn_cache_bytes=64 * 1024 * 1024,
    )
    cluster.load_trace(workload.generate())
    return cluster


def scenario_fig3_calls(cluster):
    cluster.run(10.0)
    return len(cluster.completions)


def import_golden_packet_cluster():
    # Only the import happens before the profiler starts: the test
    # profiles the cluster's set-up with its run.
    from repro.harness import golden_packet_cluster

    return golden_packet_cluster


def scenario_packet_calls(golden_packet_cluster):
    return len(golden_packet_cluster(duration_s=6.0).completions)


def report_packet_calls(stats):
    """The per-frame calls ``test_packet_call_budget.py`` holds at zero,
    counted by that test's own helper."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
    from tests.integration.test_packet_call_budget import ZERO_CALLS, calls

    for callee, caller_file, caller in ZERO_CALLS:
        name = callee[1] if callee[0] == "~" else "{}:{}".format(*callee)
        if caller_file is not None:
            name += " from {}".format(caller_file if caller is None else caller_file + ":" + caller)
        print("{} calls: {}".format(name, calls(stats, callee, caller_file, caller)))


class CollectionCounter:
    """Counts the collector's passes per generation while installed."""

    def __init__(self):
        self.counts = [0, 0, 0]

    def __call__(self, phase, info):
        if phase == "start":
            self.counts[info["generation"]] += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def build_hosting():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    from simbench import build_flow_many_subs

    from repro.cluster import Machine, WebServer

    gc.collect()
    tracked_before = len(gc.get_objects())
    with CollectionCounter() as collections:
        tracemalloc.start()
        case = build_flow_many_subs(12, 1.0)
        traced, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    tracked = len(gc.get_objects()) - tracked_before
    cluster = case.cluster
    hostings = sum(len(server.sites) for server in cluster.webservers)
    print("hosting scenario: {} hostings ({} sites x {} nodes)".format(
        hostings, len(cluster.subscribers), len(cluster.webservers)))
    print("build: {} traced bytes ({:.0f} per hosting), {} gc-tracked objects "
          "({:.2f} per hosting), collections gen-0/1/2 {}".format(
              traced, traced / hostings, tracked, tracked / hostings, collections.counts))

    # One more hosting on a node that shares the cluster's catalog.
    server = WebServer(Machine(cluster.env, "probe", fs=cluster.machines[0].fs), workers_per_site=1)
    server.host_site("warm-up")  # the node's own first-site allocations
    gc.collect()
    tracked_before = len(gc.get_objects())
    tracemalloc.start()
    server.host_site(cluster.subscribers[0].name)
    traced, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print("one more hosting: {} traced bytes, {} gc-tracked objects".format(
        traced, len(gc.get_objects()) - tracked_before))
    return case


def scenario_hosting(case):
    with CollectionCounter() as collections:
        case.cluster.run(case.end_s)
    print("run: collections gen-0/1/2 {}".format(collections.counts))
    return len(case.cluster.completions)


def print_engine_counts():
    """Print the engine's exact work counts from the telemetry registry.

    Unlike the timings below they are a function of tree and scenario
    alone, so they compare across machines.  Work done in worker
    processes is not in this process's registry.
    """
    from repro.telemetry.registry import get_registry

    registry = get_registry()
    for name in ("repro.sim.events_dispatched", "repro.sim.queue_depth_peak"):
        metric = registry.get(name)
        print("{}: {}".format(name, "not recorded" if metric is None else int(metric.value)))


SCENARIOS = {
    "fig3-synthetic": scenario_fig3_synthetic,
    "fig3-specweb": scenario_fig3_specweb,
    "golden": scenario_golden,
    "packet-splice": scenario_packet_splice,
    "engine": scenario_engine,
    "proxy": scenario_proxy,
    "proxy-sharded": scenario_proxy_sharded,
    "parked": scenario_parked,
    "fig3-calls": scenario_fig3_calls,
    "packet-calls": scenario_packet_calls,
    "hosting": scenario_hosting,
}

#: Scenarios whose set-up runs before the profiler starts; the scenario
#: is handed what its set-up built.
SETUPS = {
    "fig3-calls": build_fig3_calls,
    "packet-calls": import_golden_packet_cluster,
    "hosting": build_hosting,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument(
        "--top", type=int, default=25, help="entries to print (default 25)"
    )
    parser.add_argument(
        "--sort",
        choices=SORT_KEYS,
        default="cumulative",
        help="stat column to rank by (default cumulative)",
    )
    parser.add_argument(
        "--out", help="also dump raw pstats data to this path"
    )
    args = parser.parse_args(argv)

    setup = SETUPS.get(args.scenario)
    built = () if setup is None else (setup(),)
    profiler = cProfile.Profile()
    profiler.enable()
    completed = SCENARIOS[args.scenario](*built)
    profiler.disable()
    print_engine_counts()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    print("python calls: {}".format(stats.total_calls))
    if completed:
        print("calls per completed request: {:.1f}".format(stats.total_calls / completed))
    if args.scenario == "packet-calls":
        report_packet_calls(stats)
    if args.out:
        stats.dump_stats(args.out)
        print("raw stats written to {}".format(args.out))
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
