"""Node-health state and the locality policy's behaviour around it.

The §3.6 locality policy hashes each request's (host, directory) to a
preferred node.  These tests pin the degraded behaviour: when the
preferred node is down or out of headroom, the pick falls back to the
deterministic least-load choice and never lands on a down node.
"""

import pytest

from repro.core.config import NODES_LOCALITY
from repro.core.grps import ResourceVector
from repro.core.node_scheduler import NodeScheduler
from repro.core.simulation import default_rpn_capacity
from repro.workload import WebRequest

PREDICTED = ResourceVector(0.010, 0.010, 2000.0)


def make_scheduler(num_nodes=4):
    scheduler = NodeScheduler(policy=NODES_LOCALITY, window_s=0.25)
    for index in range(num_nodes):
        scheduler.add_node("rpn{}".format(index), default_rpn_capacity())
    return scheduler


REQUEST = WebRequest("site1", "/images/logo.png", 2000)


def preferred_of(scheduler):
    """On an idle cluster the locality pick IS the hash-preferred node."""
    return scheduler.pick(PREDICTED, request=REQUEST)


def test_idle_pick_is_stable_hash_preference():
    scheduler = make_scheduler()
    first = preferred_of(scheduler)
    assert first is not None
    for _ in range(10):
        assert scheduler.pick(PREDICTED, request=REQUEST) == first


def test_down_preferred_node_falls_back_to_least_load():
    scheduler = make_scheduler()
    preferred = preferred_of(scheduler)
    scheduler.mark_down(preferred, at_s=1.0)
    # Give every survivor a distinct load so least-load is unambiguous.
    survivors = [s.rpn_id for s in scheduler.up_nodes()]
    for weight, rpn_id in enumerate(survivors):
        for _ in range(weight + 2):
            scheduler.on_dispatch(rpn_id, PREDICTED)
    lightest = min(scheduler.up_nodes(), key=lambda s: s.load_seconds()).rpn_id
    for _ in range(20):
        choice = scheduler.pick(PREDICTED, request=REQUEST)
        assert choice == lightest  # deterministic fallback
        assert choice != preferred  # never the dead node
        scheduler.on_feedback(choice, ResourceVector.ZERO)  # keep loads fixed


def test_preferred_node_out_of_headroom_falls_back():
    scheduler = make_scheduler()
    preferred = preferred_of(scheduler)
    # Saturate the preferred node past the dispatch window (0.25 s of
    # work at 1 cpu_s/s capacity).
    scheduler.on_dispatch(preferred, ResourceVector(0.30, 0.0, 0.0))
    choice = scheduler.pick(PREDICTED, request=REQUEST)
    assert choice is not None
    assert choice != preferred
    others = [s for s in scheduler.up_nodes() if s.rpn_id != preferred]
    lightest = min(others, key=lambda s: s.load_seconds()).rpn_id
    assert choice == lightest


def test_pick_never_selects_down_node_even_without_locality_key():
    scheduler = make_scheduler(num_nodes=2)
    scheduler.mark_down("rpn0", at_s=0.0)
    for _ in range(10):
        assert scheduler.pick(PREDICTED, request=None) == "rpn1"


def test_all_nodes_down_returns_none():
    scheduler = make_scheduler(num_nodes=2)
    scheduler.mark_down("rpn0")
    scheduler.mark_down("rpn1")
    assert scheduler.pick(PREDICTED, request=REQUEST) is None


def test_mark_down_removes_capacity_and_load():
    scheduler = make_scheduler(num_nodes=3)
    scheduler.on_dispatch("rpn0", PREDICTED)
    full = scheduler.total_capacity_per_s()
    scheduler.mark_down("rpn0", at_s=2.5)
    status = scheduler.node("rpn0")
    assert not status.up
    assert status.down_since == 2.5
    assert status.failures == 1
    assert status.outstanding == ResourceVector.ZERO
    shrunk = scheduler.total_capacity_per_s()
    assert shrunk.cpu_s == pytest.approx(full.cpu_s * 2 / 3)
    # Idempotent: a second mark_down changes nothing.
    scheduler.mark_down("rpn0", at_s=9.9)
    assert scheduler.node("rpn0").failures == 1
    assert scheduler.node("rpn0").down_since == 2.5


def test_mark_up_readmits_with_drained_state():
    scheduler = make_scheduler(num_nodes=2)
    scheduler.on_dispatch("rpn0", PREDICTED)
    scheduler.mark_down("rpn0", at_s=1.0)
    scheduler.mark_up("rpn0")
    status = scheduler.node("rpn0")
    assert status.up
    assert status.down_since is None
    assert status.outstanding == ResourceVector.ZERO
    assert status.failures == 1  # history survives re-admission
    assert scheduler.total_capacity_per_s() == scheduler.node(
        "rpn0"
    ).capacity_per_s + scheduler.node("rpn1").capacity_per_s


def test_set_capacity_updates_the_total_behind_the_spare_pool():
    """A throttled node's lost half leaves the spare pool at once."""
    scheduler = make_scheduler(num_nodes=3)
    assert scheduler.total_capacity_per_s().cpu_s == 3.0  # memo now filled
    scheduler.set_capacity("rpn0", default_rpn_capacity(cpu_speed=0.5))
    assert scheduler.node("rpn0").capacity_per_s == default_rpn_capacity(cpu_speed=0.5)
    assert scheduler.total_capacity_per_s().cpu_s == 2.5
    # The load ranking reads the new capacity too.
    scheduler.on_dispatch("rpn0", PREDICTED)
    assert scheduler.node("rpn0").load_seconds() == PREDICTED.cpu_s / 0.5
