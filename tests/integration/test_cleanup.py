"""Tests that per-connection state is reclaimed after teardown."""

import gc
import weakref

import pytest

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


# -- lifetimes: a finished request is freed by reference counting alone ------


def cyclic_garbage_of_a_run(fidelity, duration):
    """Objects the collector finds unreachable after a run made with it off.

    Set-up garbage is collected before the run starts, so what is counted
    is what the run itself left in reference cycles.
    """
    env = Environment()
    workload = SyntheticWorkload(rates={"a": 20.0}, duration_s=duration, file_bytes=2000)
    cluster = GageCluster(
        env,
        [Subscriber("a", 100)],
        {"a": workload.site_files("a")},
        num_rpns=2,
        fidelity=fidelity,
    )
    cluster.load_trace(workload.generate())
    gc.collect()
    gc.disable()
    try:
        cluster.run(duration + 2.0)
        assert len(cluster.completions) >= 20 * duration - 1
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
def test_cyclic_garbage_does_not_grow_with_the_request_count(fidelity):
    # A granted worker slot that is its own value, or a connection whose
    # handshake event fires with the connection, is one cycle per request.
    assert cyclic_garbage_of_a_run(fidelity, 2.0) == cyclic_garbage_of_a_run(fidelity, 4.0)


def test_a_finished_requests_client_connection_is_freed_when_it_closes():
    env = Environment()
    cluster = build(env, rate=20.0, duration=2.0)
    closed = []  # weak references to the client connections that have closed
    for stack in cluster.fleet.stacks:
        # No retransmit check may hold the connection after it closes.
        stack.retransmit = False

        def connect(*args, _connect=stack.connect, **kwargs):
            conn = _connect(*args, **kwargs)
            ref = weakref.ref(conn)
            conn.closed.callbacks.append(lambda _event: closed.append(ref))
            return conn

        stack.connect = connect
    gc.collect()
    gc.disable()
    try:
        while env.peek() <= 4.0:
            env.step()
            assert [ref for ref in closed if ref() is not None] == []
    finally:
        gc.enable()
    stats = cluster.fleet.stats
    assert stats.completed == stats.issued == len(closed) == 39
