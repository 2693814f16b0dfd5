"""O(active) scheduler walk: settling, waking, and visit-everyone equivalence."""

import pytest

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


def run_cycle(scheduler, queues, wake_all):
    """One cycle; ``wake_all`` is the reference walk that settles nobody.

    Waking every subscriber through the public estimator accessor before
    the cycle makes the scheduler visit all of them, so comparing against
    it pins that skipping settled subscribers changes nothing.
    """
    if wake_all:
        for queue in queues:
            scheduler.estimator(queue.subscriber.name)
    return scheduler.run_cycle()


def subs(count, reservation_grps=100):
    # 100 GRPS => one generic request of credit per cycle, so the hoard
    # cap (4 cycles' worth) is reached — and idle subscribers settle —
    # within a handful of cycles.
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


def test_idle_subscribers_settle_out_of_the_walk():
    scheduler, queues, _acc, _nodes, _d = build(subs(100))
    assert scheduler.active_count() == 100
    # One cycle caps every idle balance at the hoard cap; a second cycle
    # confirms the fixed point and settles everyone.
    for _ in range(10):
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


def test_offer_wakes_a_settled_subscriber():
    scheduler, queues, _acc, _nodes, dispatched = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    fill(queues, "sub0003", 1)
    scheduler.run_cycle()
    assert ("sub0003-0", dispatched[-1][1], "sub0003") == dispatched[-1]


def test_feedback_wakes_a_settled_subscriber():
    scheduler, queues, _acc, _nodes, _d = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    feedback(scheduler, "rpn0", GENERIC_REQUEST, {"sub0005": 1})
    assert scheduler.active_count() == 1


def test_estimator_access_wakes_a_settled_subscriber():
    scheduler, queues, _acc, _nodes, _d = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    scheduler.estimator("sub0007")
    assert scheduler.active_count() == 1


def test_lazy_and_eager_make_identical_decisions():
    """The settled-subscriber skip must be a behavioral no-op."""

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


def test_settled_balances_match_eager_balances():
    def balances(wake_all):
        scheduler, queues, accounting, _nodes, _d = build(subs(10))
        fill(queues, "sub0000", 50)
        for _ in range(30):
            run_cycle(scheduler, queues, wake_all)
        return {
            name: accounting.account(name).balance
            for name in ("sub0000", "sub0004", "sub0009")
        }

    assert balances(wake_all=False) == balances(wake_all=True)


def test_churn_while_settled():
    """Unregistering a settled subscriber and reusing its id is safe."""
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
