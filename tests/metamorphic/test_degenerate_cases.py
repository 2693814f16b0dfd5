"""Degenerate cases: a configuration that reduces to a simpler one must
behave exactly like it.

A hedge that never fires is hedging off.  No knob asks for zero clones
(each hedged request earns exactly one clone timer), so the
never-firing hedge is a delay no run reaches (1e9 s).  The hedge manager still tracks every request, so
the relation checks that tracking alone — no clone charged, nothing
cancelled or refunded — leaves every charge, completion and byte as it
was, on the simulator and on real sockets.

``num_rpns=N`` is the homogeneous N-node topology, and a fault schedule
that fires only after the run ends is no schedule: both leave the
golden fig-3 digest and its event count as they are.
"""

import asyncio
from collections import Counter
from pathlib import Path

from repro.core import GageCluster, GageConfig, Subscriber
from repro.core.topology import ClusterTopology
from repro.faults import FaultSchedule
from repro.harness.golden import accounting_digest, golden_fig3_cluster
from repro.proxy import BackendServer, GageProxy
from repro.sim import Environment
from repro.workload import SyntheticWorkload

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


def golden_fig3_variant(faults_before_load=None, faults_after_load=None, **cluster_kwargs):
    """The golden fig-3 run of :func:`golden_fig3_cluster`, spelled out so a
    relation can swap how the cluster is described or arm a fault plan.

    With no arguments it is exactly the golden run: the same subscribers,
    config, trace and cluster knobs, in the same order.
    """
    duration_s, names = 3.0, ["site1", "site2"]
    env = Environment()
    workload = SyntheticWorkload(
        rates={name: 60.0 for name in names},
        duration_s=duration_s,
        file_bytes=6 * 1024,
        arrival="poisson",
        seed=7,
    )
    if not cluster_kwargs:
        cluster_kwargs = dict(num_rpns=2, rpn_cache_bytes=8 * 1024 * 1024)
    cluster = GageCluster(
        env,
        [Subscriber(name, 120.0, queue_capacity=256) for name in names],
        {name: workload.site_files(name) for name in names},
        config=GageConfig(accounting_cycle_s=0.1, spare_policy="none"),
        fidelity="flow",
        **cluster_kwargs,
    )
    injectors = []
    if faults_before_load is not None:
        injectors.append(cluster.install_faults(faults_before_load))
    cluster.load_trace(workload.generate())
    if faults_after_load is not None:
        injectors.append(cluster.install_faults(faults_after_load))
    cluster.run(duration_s)
    return cluster, injectors


def test_golden_variant_is_the_golden_run():
    cluster, _ = golden_fig3_variant()
    assert accounting_digest(cluster) == GOLDEN_FILE.read_text().strip()
    assert cluster.env.events_dispatched == golden_fig3_cluster().env.events_dispatched


def test_num_rpns_is_the_homogeneous_topology():
    committed = GOLDEN_FILE.read_text().strip()
    scalar, _ = golden_fig3_variant()
    topology, _ = golden_fig3_variant(
        topology=ClusterTopology.homogeneous(2, cache_bytes=8 * 1024 * 1024)
    )
    assert topology.topology == scalar.topology
    assert accounting_digest(topology) == accounting_digest(scalar) == committed
    assert topology.env.events_dispatched == scalar.env.events_dispatched


def test_fault_schedule_firing_after_the_run_is_no_schedule():
    committed = GOLDEN_FILE.read_text().strip()
    plain, _ = golden_fig3_variant()
    late = FaultSchedule.crash_restart("rpn0", 10.0, 1.0)
    before, (armed_before,) = golden_fig3_variant(faults_before_load=late)
    after, (armed_after,) = golden_fig3_variant(faults_after_load=late)
    for cluster, injector in ((before, armed_before), (after, armed_after)):
        assert accounting_digest(cluster) == committed
        assert cluster.env.events_dispatched == plain.env.events_dispatched
        assert injector.applied == []
        assert cluster.fault_log == []


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
