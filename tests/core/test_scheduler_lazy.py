"""O(active) scheduler walk: parking, waking, and visit-everyone equivalence."""

import dataclasses

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import (
    GageConfig,
    NodeScheduler,
    RDNAccounting,
    RequestScheduler,
    Subscriber,
    SubscriberQueues,
)
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.grps import GENERIC_REQUEST, ResourceVector
from repro.telemetry.registry import get_registry, reset

#: An RPN that can deliver 100 generic requests per second.
RPN_CAPACITY = ResourceVector(1.0, 1.0, 12_500_000)


def build(subscribers, rpns=4, config=None):
    """Assemble a scheduler over in-memory queues; returns the parts."""
    config = config or GageConfig()
    queues = SubscriberQueues()
    accounting = RDNAccounting(table=queues.table)
    nodes = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
    for sub in subscribers:
        queues.register(sub)
        accounting.register(sub)
    for index in range(rpns):
        nodes.add_node("rpn{}".format(index), RPN_CAPACITY)
    dispatched = []
    scheduler = RequestScheduler(
        config,
        queues,
        accounting,
        nodes,
        dispatch_fn=lambda req, rpn, name, predicted: dispatched.append((req, rpn, name)),
    )
    return scheduler, queues, accounting, nodes, dispatched


def fill(queues, name, count):
    queue = queues.get(name)
    for i in range(count):
        queue.offer("{}-{}".format(name, i))


def feedback(scheduler, rpn_id, usage_per_request, completed_by_name, now=1.0):
    message = AccountingMessage(
        rpn_id=rpn_id,
        cycle_start_s=now - 0.1,
        cycle_end_s=now,
        total_usage=ResourceVector.ZERO,
        per_subscriber={
            name: RPNUsageReport(usage_per_request.scaled(count), count)
            for name, count in completed_by_name.items()
        },
    )
    scheduler.apply_feedback(message)


def bits(value):
    """``value`` with every float replaced by its exact bit pattern.

    ``0.0 == -0.0``, so comparing balances with ``==`` would let a
    zero-sign divergence through; comparing ``bits`` does not.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(bits(item) for item in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, bits(dataclasses.astuple(value)))
    return value


def run_cycle(scheduler, queues, wake_all):
    """One cycle; ``wake_all`` is the reference walk that parks nobody.

    Waking every subscriber through the public estimator accessor before
    the cycle makes the scheduler visit all of them, so comparing against
    it pins that skipping parked subscribers changes nothing.
    """
    if wake_all:
        for queue in queues:
            scheduler.estimator(queue.subscriber.name)
    return scheduler.run_cycle()


def subs(count, reservation_grps=100):
    # 100 GRPS => one generic request of credit per cycle, so the hoard
    # cap (4 cycles' worth) is reached within a handful of cycles.
    return [
        Subscriber("sub{:04d}".format(i), reservation_grps=reservation_grps)
        for i in range(count)
    ]


def test_separate_tables_are_refused():
    config = GageConfig()
    nodes = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
    with pytest.raises(ValueError):
        RequestScheduler(
            config,
            SubscriberQueues(),
            RDNAccounting(),
            nodes,
            dispatch_fn=lambda req, rpn, name, predicted: None,
        )


def test_idle_subscribers_park_out_of_the_walk():
    scheduler, queues, _acc, _nodes, _d = build(subs(100))
    assert scheduler.active_count() == 100
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0


def test_idle_subscriber_parks_after_one_cycle():
    """Parking does not wait for the balance to reach the hoard cap."""
    # 0.1 GRPS needs 1 500 cycles to save up its cap of 1.5 requests.
    scheduler, _queues, _acc, _nodes, _d = build(subs(50, reservation_grps=0.1))
    assert scheduler.active_count() == 50
    scheduler.run_cycle()
    assert scheduler.active_count() == 0


def test_only_backlogged_subscribers_stay_active():
    scheduler, queues, _acc, _nodes, dispatched = build(subs(50), rpns=1)
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    fill(queues, "sub0001", 1_000)  # more than its credit can drain
    scheduler.run_cycle()
    assert scheduler.active_count() == 1
    assert dispatched  # the woken subscriber actually dispatched


def test_offer_wakes_a_parked_subscriber():
    scheduler, queues, _acc, _nodes, dispatched = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    fill(queues, "sub0003", 1)
    scheduler.run_cycle()
    assert ("sub0003-0", dispatched[-1][1], "sub0003") == dispatched[-1]


def test_feedback_wakes_a_parked_subscriber():
    scheduler, queues, _acc, _nodes, _d = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    feedback(scheduler, "rpn0", GENERIC_REQUEST, {"sub0005": 1})
    assert scheduler.active_count() == 1


def test_estimator_access_wakes_a_parked_subscriber():
    scheduler, queues, _acc, _nodes, _d = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    scheduler.estimator("sub0007")
    assert scheduler.active_count() == 1


def test_lazy_and_eager_make_identical_decisions():
    """The parked-subscriber skip must be a behavioral no-op."""

    def run(wake_all):
        scheduler, queues, _acc, _nodes, dispatched = build(
            subs(20, reservation_grps=50),
            rpns=4,
        )
        trace = []
        for cycle in range(200):
            # Deterministic, bursty workload: different subscribers go
            # active/idle at different times.
            if cycle % 7 == 0:
                fill(queues, "sub{:04d}".format((cycle // 7) % 20), 5)
            if cycle % 13 == 0:
                fill(queues, "sub0002", 3)
            decisions = run_cycle(scheduler, queues, wake_all)
            trace.extend(
                (cycle, d.subscriber, d.rpn_id, d.spare) for d in decisions
            )
            if cycle % 11 == 0 and decisions:
                feedback(
                    scheduler,
                    decisions[0].rpn_id,
                    GENERIC_REQUEST,
                    {decisions[0].subscriber: 1},
                    now=float(cycle),
                )
        return trace

    assert run(wake_all=False) == run(wake_all=True)


def test_parked_balances_match_eager_balances():
    def balances(wake_all):
        scheduler, queues, accounting, _nodes, _d = build(subs(10))
        fill(queues, "sub0000", 50)
        for _ in range(30):
            run_cycle(scheduler, queues, wake_all)
        return {
            name: bits(accounting.account(name).balance)
            for name in ("sub0000", "sub0004", "sub0009")
        }

    assert balances(wake_all=False) == balances(wake_all=True)


def test_churn_while_parked():
    """Unregistering a parked subscriber and reusing its id is safe."""
    scheduler, queues, accounting, _nodes, dispatched = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    accounting.unregister("sub0004")
    queues.unregister("sub0004")
    newcomer = Subscriber("fresh", reservation_grps=100)
    queues.register(newcomer)  # reuses sub0004's interned id
    accounting.register(newcomer)
    fill(queues, "fresh", 2)
    decisions = scheduler.run_cycle()
    assert {d.subscriber for d in decisions} == {"fresh"}


# -- park/replay ≡ visiting everyone, as a property ----------------------------

#: Mostly too small ever to reach the hoard cap inside a run (the cap is
#: 1.5 predicted requests; 3 GRPS needs 50 cycles, 0.1 GRPS needs 1 500),
#: so a parked balance is still rising whenever something touches it; the
#: 40-GRPS one does reach it, at a cap that moves with its estimator.
SMALL_GRPS = (0.1, 0.5, 3.0, 0.0, 40.0, 0.1)
RPNS = ("rpn0", "rpn1")
POPULATION = 6

_sub = st.integers(0, POPULATION - 1)
_rpn = st.sampled_from(RPNS)
_factor = st.sampled_from((0.25, 1.0, 1.75))
OPS = st.one_of(
    st.tuples(st.just("offer"), _sub, st.integers(1, 3)),
    st.tuples(st.just("cycles"), st.sampled_from((1, 1, 2, 3, 17, 60))),
    st.tuples(st.just("feedback"), _sub, _rpn, st.integers(0, 2), _factor),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("node_death"), _rpn),
    st.tuples(st.just("credit"), _sub, _factor),
    st.tuples(st.just("observe"), _sub, _factor),
    st.tuples(st.just("unregister"), _sub),
    st.tuples(st.just("register"), _sub),
    st.tuples(st.just("credit_report")),
    st.tuples(st.just("snapshot")),
)


SUBSCRIBER_OPS = ("offer", "feedback", "credit", "observe", "unregister", "register")


def _gauges():
    """value/min/max of every credit-balance gauge."""
    return {
        key: (metric["value"], metric["min"], metric["max"])
        for key, metric in get_registry().snapshot()["metrics"].items()
        if key.startswith("repro.core.credit_balance_grps")
    }


def replay_ops(ops, wake_all):
    """Run one op sequence; returns everything an observer could compare."""
    reset()  # both runs write the same process-wide gauges
    population = [
        Subscriber("sub{}".format(i), reservation_grps=SMALL_GRPS[i % len(SMALL_GRPS)])
        for i in range(POPULATION)
    ]
    scheduler, queues, accounting, _nodes, dispatched = build(population, rpns=len(RPNS))
    note_balance = accounting.on_replay
    replayed = {}  # cycle -> balances replayed in it
    memo_hits = 0

    def count_memo_hits(account):
        # A replay that reuses another account's memoised result leaves
        # the very same vector object behind; a computed one is new.
        nonlocal memo_hits
        seen = replayed.setdefault(accounting.cycle, [])
        memo_hits += any(account.balance is other for other in seen)
        seen.append(account.balance)
        note_balance(account)

    accounting.on_replay = count_memo_hits
    in_flight = []  # (request, rpn, name, predicted), dispatch order
    trace = []
    serial = 0
    for op in ops:
        kind = op[0]
        name = "sub{}".format(op[1]) if kind in SUBSCRIBER_OPS else None
        if kind == "offer" and name in queues:
            for _ in range(op[2]):
                serial += 1
                queues.get(name).offer("req{}".format(serial))
        elif kind == "cycles":
            for _ in range(op[1]):
                decisions = run_cycle(scheduler, queues, wake_all)
                trace.extend((scheduler.cycles, d) for d in decisions)
                for (request, rpn_id, owner), decision in zip(dispatched, decisions):
                    in_flight.append((request, rpn_id, owner, decision.predicted))
                del dispatched[:]
        elif kind == "feedback":
            _, _, rpn_id, completed, factor = op
            feedback(
                scheduler, rpn_id, GENERIC_REQUEST.scaled(factor), {name: completed}
            )
        elif kind == "cancel" and in_flight:
            _req, rpn_id, owner, predicted = in_flight.pop(op[1] % len(in_flight))
            trace.append(("cancel", accounting.on_cancel(owner, rpn_id, predicted)))
        elif kind == "node_death":
            # The RDN's recovery, between cycles: predictions restored,
            # the node's requests back at the heads of their queues.
            trace.append(("forget", sorted(accounting.forget_rpn(op[1]).items())))
            for entry in [e for e in in_flight if e[1] == op[1]]:
                in_flight.remove(entry)
                queue = queues.get(entry[2])
                if queue is not None:
                    queue.requeue(entry[0])
        elif kind == "credit" and name in queues:
            accounting.credit(name, GENERIC_REQUEST.scaled(op[2]))
        elif kind == "observe" and name in queues:
            # An estimator write moves the hoard cap of the cycles ahead.
            scheduler.estimator(name).observe(GENERIC_REQUEST.scaled(op[2]))
        elif kind == "unregister" and name in queues:
            accounting.unregister(name)
            queues.unregister(name)
        elif kind == "register" and name not in queues:
            queues.register(population[op[1]])
            accounting.register(population[op[1]])
        elif kind == "credit_report":
            trace.append(("report", scheduler.credit_report()))
        elif kind == "snapshot":
            scheduler.sync()
            trace.append(("gauges", _gauges()))
    scheduler.sync()
    balances = {
        queue.subscriber.name: accounting.account_by_id(queue.sid).balance
        for queue in queues
    }
    observed = bits((trace, balances, _gauges()))
    return observed, scheduler.active_count(), memo_hits


def test_parking_is_bit_equal_to_visiting_everyone():
    """Balances, decisions and gauge value/min/max, under any interleaving."""
    memo_hits = []

    @seed(20030519)
    @settings(max_examples=200, deadline=None)
    @given(st.lists(OPS, min_size=1, max_size=60))
    def check(ops):
        lazy = replay_ops(ops, wake_all=False)
        eager = replay_ops(ops, wake_all=True)
        assert lazy[0] == eager[0]
        # ... and the lazy walk really did skip subscribers: it never has
        # more in the walk than the reference, which wakes all of them.
        assert lazy[1] <= eager[1]
        memo_hits.append(lazy[2])

    check()
    # SMALL_GRPS repeats 0.1, so some replays share one parked state.
    assert sum(memo_hits) > 0


def test_mid_run_sync_snapshot_matches_eager():
    """A parked balance keeps rising; ``sync()`` makes its gauge say so."""

    def snapshot(wake_all):
        reset()
        scheduler, queues, _acc, _nodes, _d = build(subs(6, reservation_grps=0.5))
        fill(queues, "sub0002", 1)
        for _ in range(37):
            run_cycle(scheduler, queues, wake_all)
        scheduler.sync()
        return _gauges()

    lazy = snapshot(wake_all=False)
    assert lazy == snapshot(wake_all=True)
    # 37 refills of 0.005 generic requests, not the one the last visit saw.
    value, low, high = lazy["repro.core.credit_balance_grps{subscriber=sub0004}"]
    assert value == high > 30 * 0.005 and low == pytest.approx(0.005)


def test_sync_and_credit_report_wake_nobody():
    scheduler, queues, accounting, _nodes, _d = build(subs(8, reservation_grps=0.5))
    for _ in range(5):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    before = accounting.account_by_id(0).balance
    scheduler.run_cycle()
    scheduler.sync()
    unused, backlog = scheduler.credit_report()
    assert scheduler.active_count() == 0 and not backlog
    assert accounting.account_by_id(0).balance[0] > before[0]
    assert set(unused) == {queue.subscriber.name for queue in queues}


def test_replay_runs_before_the_mutation_that_woke_it():
    """Hazard: a refund above the cap must land *after* the missed refills."""
    # 100 GRPS: cap 4 requests.  Park at balance 1, miss 9 refills (cap
    # reached), then credit 2 more: refill-then-credit gives 6, while
    # credit-then-refill would stop at 4.
    scheduler, _queues, accounting, _nodes, _d = build(subs(1))
    scheduler.run_cycle()
    for _ in range(9):
        scheduler.run_cycle()
    accounting.credit("sub0000", GENERIC_REQUEST.scaled(2.0))
    assert accounting.account_by_id(0).balance == GENERIC_REQUEST.scaled(6.0)


def test_wake_inside_a_cycle_replays_through_the_previous_cycle_only():
    """Hazard: the waking cycle's own refill follows in the walk."""
    scheduler, queues, accounting, _nodes, dispatched = build(
        subs(1, reservation_grps=25)  # a quarter request per cycle
    )
    for _ in range(3):
        scheduler.run_cycle()  # parks at 0.25, replay owes cycles 2 and 3
    fill(queues, "sub0000", 1)
    scheduler.run_cycle()  # wake: replay 2, 3; refill 4 -> exactly 1.0
    assert len(dispatched) == 1
    assert accounting.account_by_id(0).balance == ResourceVector.ZERO


def test_touching_a_parked_account_inside_the_walk_is_refused():
    """Hazard: its refill would fall before or after by visit order."""
    touched = []

    def build_with(victim):
        queues = SubscriberQueues()
        accounting = RDNAccounting(table=queues.table)
        config = GageConfig()
        nodes = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
        for sub in subs(3):
            queues.register(sub)
            accounting.register(sub)
        nodes.add_node("rpn0", RPN_CAPACITY)

        def dispatch_fn(req, rpn, name, predicted):
            touched.append(victim)
            accounting.credit(victim, GENERIC_REQUEST)

        return RequestScheduler(config, queues, accounting, nodes, dispatch_fn), queues

    # Cycle 2's pivot is sub0002, so the visit order is 2, 0, 1: when
    # sub0001 dispatches, sub0000 was parked earlier in this same walk
    # (its refill is behind it) — fine.
    scheduler, queues = build_with("sub0000")
    scheduler.run_cycle()
    scheduler.estimator("sub0000")  # back in the walk for cycle 2
    fill(queues, "sub0001", 1)
    scheduler.run_cycle()
    assert touched == ["sub0000"]
    # sub0002 parked in cycle 1 and is not in cycle 2's walk at all.
    scheduler, queues = build_with("sub0002")
    scheduler.run_cycle()
    fill(queues, "sub0001", 1)
    with pytest.raises(RuntimeError, match="inside the reserved walk"):
        scheduler.run_cycle()
    # The walk flag does not stay stuck after the refusal.
    scheduler.run_cycle()
