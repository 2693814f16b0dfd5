"""Tests that per-connection state is reclaimed after teardown."""

from repro.core import GageCluster, Subscriber
from repro.sim import Environment
from repro.workload import SyntheticWorkload


def build(env, rate=20.0, duration=2.0):
    subs = [Subscriber("a", 100)]
    workload = SyntheticWorkload(rates={"a": rate}, duration_s=duration, file_bytes=2000)
    cluster = GageCluster(
        env,
        subs,
        {"a": workload.site_files("a")},
        num_rpns=2,
        fidelity="packet",
    )
    cluster.load_trace(workload.generate())
    return cluster


def test_conntable_entries_reclaimed_after_linger():
    env = Environment()
    cluster = build(env)
    cluster.run(2.2)
    mid_size = len(cluster.rdn.conntable)
    assert mid_size > 0  # recent connections still lingering
    cluster.run(6.0)  # all connections closed and lingered out
    assert len(cluster.rdn.conntable) == 0
    assert cluster.fleet.stats.completed == cluster.fleet.stats.issued


def test_splice_rules_reclaimed_after_linger():
    env = Environment()
    cluster = build(env)
    cluster.run(6.0)
    for lsm in cluster.lsms:
        assert lsm._rules_in == {}
        assert lsm._rules_out == {}
    # Connections also drained from the RPN stacks.
    for lsm in cluster.lsms:
        assert len(lsm.stack.connections) == 0


def test_state_survives_while_connections_active():
    env = Environment()
    cluster = build(env, rate=30.0, duration=3.0)
    cluster.run(1.5)
    # Mid-run: active + lingering state present and service unbroken.
    assert len(cluster.rdn.conntable) > 0
    assert any(lsm._rules_in for lsm in cluster.lsms)
    cluster.run(10.0)
    assert cluster.fleet.stats.completed == cluster.fleet.stats.issued
