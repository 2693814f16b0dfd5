"""``call_later_each`` against the per-item ``call_later`` loop it replaced.

``LoopEnvironment`` schedules a batch the way every trace loader did
before the batch became one streamed heap entry: one ``call_later`` per
item, in input order.  The property drives one generated schedule
through both and requires the same fired sequence — time, item, what
``peek()`` saw, and the interleaving with unrelated ``call_later``,
``timeout`` and ``Process`` events — and the same ``events_dispatched``.

The schedules cover what the trace loaders do: batches loaded at
``now > 0`` whose trace times are partly in the past
(``issue_delays``), two batches of one trace loaded back to back as
packet mode does, unsorted, duplicate and zero delays, empty batches,
and trace times that ``now + (at_s - now)`` does not reproduce exactly.
Some items schedule a follow-up from inside the callback and some raise,
after which the run resumes, so a batch must survive its callback.
"""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.sim import Environment, SimulationError
from repro.workload.request import RequestRecord, issue_delays


class LoopEnvironment(Environment):
    """``Environment`` with the parent commit's batch scheduling."""

    def call_later_each(self, delays, fn, items):
        for delay, item in zip(delays, items):
            self.call_later(delay, fn, item)


class Boom(Exception):
    pass


#: Instants a load can happen at; 0.3 and 1/3 put ``now + (0.9 - now)``
#: one ulp away from 0.9.
STARTS = [0.0, 0.1, 0.3, 1 / 3]
#: Trace times: on, before and after the load instants, colliding with
#: the delays below.
TRACE_TIMES = [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.4, 0.9, 0.9]
DELAYS = [0.0, 0.0, 0.1, 0.2, 1 / 3, 0.5, 0.6]
GAPS = [0.0, 0.1, 0.2, 0.25]
KINDS = ["plain", "plain", "plain", "spawn", "boom"]

records = st.lists(st.tuples(st.sampled_from(TRACE_TIMES), st.sampled_from(KINDS)), max_size=12)
steps = st.one_of(
    st.tuples(st.just("trace"), records),
    st.tuples(st.just("pair"), records),
    st.tuples(
        st.just("delays"),
        st.lists(st.tuples(st.sampled_from(DELAYS), st.sampled_from(KINDS)), max_size=12),
    ),
    st.tuples(st.just("later"), st.sampled_from(DELAYS)),
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("process"), st.lists(st.sampled_from(DELAYS), min_size=1, max_size=3)),
    st.tuples(st.just("advance"), st.sampled_from(GAPS)),
    st.tuples(st.just("step"), st.integers(1, 3)),
)
schedules = st.fixed_dictionaries(
    {"start_s": st.sampled_from(STARTS), "steps": st.lists(steps, max_size=14)}
)


def drive(env_cls, schedule):
    """Run ``schedule`` on a fresh environment; returns everything observable."""
    env = env_cls()
    log = []
    idents = itertools.count()

    def note(tag):
        log.append((env.now, tag, env.peek()))

    def fire(record):
        note(("fire", record.host, record.size_bytes))
        if record.path == "spawn":
            env.call_later(0.0, note, ("spawned", record.size_bytes))
        elif record.path == "boom":
            raise Boom(record.size_bytes)

    def run(until=None):
        while True:
            try:
                env.run(until)
                return
            except Boom as boom:
                note(("boom", boom.args[0]))

    def trace(pairs, host="trace"):
        return [RequestRecord(at, host, kind, next(idents)) for at, kind in pairs]

    def process(delays, tag):
        for delay in delays:
            yield env.timeout(delay)
            note(tag)

    run(schedule["start_s"])
    for kind, value in schedule["steps"]:
        if kind in ("trace", "pair"):
            batch = trace(value)
            env.call_later_each(issue_delays(batch, env.now), fire, batch)
            if kind == "pair":
                arrivals = [RequestRecord(r.at_s, "arrival", "plain", r.size_bytes) for r in batch]
                env.call_later_each(issue_delays(batch, env.now), fire, arrivals)
        elif kind == "delays":
            batch = trace(value, host="delays")
            env.call_later_each([delay for delay, _kind in value], fire, batch)
        elif kind == "later":
            env.call_later(value, note, ("later", next(idents)))
        elif kind == "timeout":
            tag = ("timeout", next(idents))
            env.timeout(value).callbacks.append(lambda _event, tag=tag: note(tag))
        elif kind == "process":
            env.process(process(value, ("process", next(idents))))
        elif kind == "advance":
            run(env.now + value)
        else:
            for _ in range(value):
                if env.peek() == float("inf"):
                    break
                try:
                    env.step()
                except Boom as boom:
                    note(("boom", boom.args[0]))
    run()
    return log, env.events_dispatched, env.now


@seed(20030521)
@settings(max_examples=400, deadline=None)
@given(schedule=schedules)
def test_streamed_batches_fire_exactly_as_the_call_later_loop(schedule):
    assert drive(Environment, schedule) == drive(LoopEnvironment, schedule)


def test_the_schedules_reach_what_they_claim_to():
    """A fixed schedule of the generated shape has past trace times, a
    fire time that is not ``at_s``, ties with other events, an item that
    raises mid-batch and one that schedules from inside its callback — so
    equality above is not equality of nothing."""
    schedule = {
        "start_s": 1 / 3,
        "steps": [
            ("later", 0.0),
            ("pair", [(0.9, "plain"), (0.2, "spawn"), (0.9, "boom"), (1 / 3, "plain"), (0.9, "plain")]),
            ("timeout", 0.0),
            ("process", [0.0, 0.2]),
            ("delays", [(0.2, "plain"), (0.0, "plain"), (0.2, "spawn"), (0.0, "plain")]),
            ("step", 3),
            ("advance", 0.2),
            ("trace", [(0.0, "plain"), (0.9, "plain")]),
            ("delays", []),
        ],
    }
    result = drive(Environment, schedule)
    assert result == drive(LoopEnvironment, schedule)
    log = [(when, tag) for when, tag, _peek in result[0]]
    late = 1 / 3 + (0.9 - 1 / 3)
    assert late != 0.9
    # Past trace times fire at the load instant, before a timeout pushed
    # after them and in input order, each batch after the one loaded first.
    assert [tag for when, tag in log[1:6]] == [
        ("fire", "trace", 2),
        ("fire", "trace", 4),
        ("fire", "arrival", 2),
        ("fire", "arrival", 4),
        ("timeout", 6),
    ]
    # Equal trace times keep input order across an item that raised.
    assert log[-8:-1] == [
        (late, ("fire", "trace", 1)),
        (late, ("fire", "trace", 3)),
        (late, ("boom", 3)),
        (late, ("fire", "trace", 5)),
        (late, ("fire", "arrival", 1)),
        (late, ("fire", "arrival", 3)),
        (late, ("fire", "arrival", 5)),
    ]
    assert log[-1] == (0.9, ("fire", "trace", 13))  # loaded later, lands on 0.9
    assert ("spawned", 2) in [tag for _when, tag in log]


def test_a_batch_is_one_heap_entry_and_releases_what_has_fired():
    env = Environment()
    records = [RequestRecord(at, "h", "/", i) for i, at in enumerate([0.3, 0.1, 0.2, 0.1])]
    fired = []
    env.call_later_each(issue_delays(records, env.now), fired.append, records)
    env.call_later(0.5, fired.append, "last")
    env.step()
    assert env.queue_depth_peak == 2
    assert fired == [records[1]]

    first = weakref.ref(fired.pop())
    del records[1]
    gc.collect()
    assert first() is None  # the pending batch no longer holds it
    env.run()
    assert fired == [records[2], records[1], records[0], "last"]
    assert env.events_dispatched == 5


def test_a_rejected_batch_schedules_nothing():
    env = Environment()
    with pytest.raises(SimulationError):
        env.call_later_each([0.1, -0.1, 0.2], print, ["a", "b", "c"])
    with pytest.raises(ValueError):
        env.call_later_each([0.1, 0.2], print, ["a"])
    env.call_later_each([], print, [])
    assert env.peek() == float("inf")
    env.run()
    assert env.events_dispatched == 0
