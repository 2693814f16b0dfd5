"""``TimerStream`` and ``Deadline`` against the ``Timeout`` they stand for.

A stream fires each timer under the key a ``call_later`` or ``Timeout``
created at its arming would have had, so interleaving with everything
else on the heap is unchanged; what changes is that only the stream's
earliest pending timer is on the heap, and that a released timer holds
nothing.
"""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Deadline, Environment, SimulationError, TimerStream

DELAY = 0.5
GAPS = [0.0, 0.0, 0.1, 0.25, 0.5, 0.7]


def run_script(script, streamed):
    """Arm one fixed-delay timer per step, release some, and log firings.

    ``streamed`` arms through a ``TimerStream``; otherwise through plain
    ``Timeout``s whose callback a released flag silences.  Each step also
    schedules an unrelated ``call_later`` with the same delay, so the log
    shows the tie order between the two kinds.
    """
    env = Environment()
    log = []
    stream = TimerStream(env, lambda item: log.append((env.now, "timer", item)))
    handles = []

    def driver():
        for index, (gap, release) in enumerate(script):
            yield env.timeout(gap)
            if streamed:
                handles.append(stream.arm(DELAY, index))
            else:
                flag = [False]
                env.timeout(DELAY).callbacks.append(
                    lambda _event, index=index, flag=flag: flag[0] or log.append((env.now, "timer", index))
                )
                handles.append(flag)
            env.call_later(DELAY, log.append, (env.now + DELAY, "other", index))
            if release is not None and release <= index:
                if streamed:
                    stream.release(handles[release])
                else:
                    handles[release][0] = True

    env.process(driver())
    env.run()
    return log


script = st.lists(
    st.tuples(st.sampled_from(GAPS), st.one_of(st.none(), st.integers(0, 11))),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(script)
def test_a_stream_fires_as_the_timeouts_it_replaces(steps):
    streamed = run_script(steps, streamed=True)
    plain = run_script(steps, streamed=False)
    assert streamed == plain


def test_a_deadline_keeps_the_key_of_the_timeout_it_replaces():
    env = Environment()
    stream = Deadline.stream(env)
    order = []
    first = env.timeout(1.0)
    deadline = Deadline(stream, 1.0)
    last = env.timeout(1.0)
    for name, event in (("first", first), ("deadline", deadline), ("last", last)):
        event.callbacks.append(lambda event, name=name: order.append((name, env.now, event.value)))
    env.run()
    assert order == [("first", 1.0, None), ("deadline", 1.0, None), ("last", 1.0, None)]
    assert deadline.processed and deadline.ok
    deadline.release()  # a no-op once it has occurred
    assert deadline.processed


def test_a_released_deadline_holds_nothing_and_costs_one_event_per_delay():
    env = Environment()
    stream = Deadline.stream(env)

    class Waiter:
        def observe(self, _event):
            raise AssertionError("a released deadline occurred")

    waiters = []
    for _ in range(99):
        waiter = Waiter()
        deadline = Deadline(stream, 1.0)
        deadline.callbacks.append(waiter.observe)
        waiters.append(weakref.ref(waiter))
        del waiter
        deadline.release()
        assert deadline.callbacks == [] and not deadline.triggered
        env.run(until=env.now + 0.01)
    assert [ref for ref in waiters if ref() is not None] == []
    assert len(env._heap) == 1  # the first deadline's entry, now a no-op
    env.run()
    assert env.events_dispatched == 1
    assert env.now == 1.0


def test_a_long_stream_of_released_timers_stays_short():
    env = Environment()
    stream = TimerStream(env, print)
    for index in range(10_000):
        stream.release(stream.arm(DELAY, index))
    assert len(stream._items) < 2048


def test_arming_must_not_go_back_in_time():
    env = Environment()
    stream = TimerStream(env, print)
    stream.arm(1.0, "a")
    with pytest.raises(SimulationError):
        stream.arm(0.5, "b")
    with pytest.raises(SimulationError):
        stream.arm(-0.1, "c")
