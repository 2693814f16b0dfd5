"""Tests for Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_mutual_exclusion():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(env, name, hold):
        with resource.request() as req:
            yield req
            log.append(("acquire", name, env.now))
            yield env.timeout(hold)
        log.append(("release", name, env.now))

    env.process(user(env, "a", 2.0))
    env.process(user(env, "b", 1.0))
    env.run()
    assert log == [
        ("acquire", "a", 0.0),
        ("release", "a", 2.0),
        ("acquire", "b", 2.0),
        ("release", "b", 3.0),
    ]


def test_resource_parallel_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    finished = []

    def user(env, name):
        with resource.request() as req:
            yield req
            yield env.timeout(1.0)
        finished.append((name, env.now))

    for name in ["a", "b", "c"]:
        env.process(user(env, name))
    env.run()
    assert finished == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_resource_counters():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env):
        with resource.request() as req:
            yield req
            assert resource.count == 1
            yield env.timeout(1.0)

    def waiter(env):
        yield env.timeout(0.5)
        req = resource.request()
        assert resource.queue_length == 1
        yield req
        resource.release(req)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert resource.count == 0
    assert resource.queue_length == 0


def test_resource_cancel_waiting_request():
    env = Environment()
    resource = Resource(env, capacity=1)
    granted = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(5.0)

    def impatient(env):
        yield env.timeout(0.1)
        req = resource.request()
        yield env.timeout(1.0)
        req.cancel()
        granted.append(req.triggered)

    env.process(holder(env))
    env.process(impatient(env))
    env.run()
    assert granted == [False]
    assert resource.queue_length == 0


@settings(max_examples=40, deadline=None)
@given(holds=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10))
def test_resource_never_exceeds_capacity(holds):
    env = Environment()
    resource = Resource(env, capacity=2)
    over_capacity = []

    def user(env, hold):
        with resource.request() as req:
            yield req
            if resource.count > resource.capacity:
                over_capacity.append(resource.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, hold))
    env.run()
    assert over_capacity == []
    assert resource.count == 0
