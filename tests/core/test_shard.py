"""Tests for the credit hierarchy (repro.core.shard).

The allocator on its own, then composed with plain
:class:`RequestScheduler` instances the way
:class:`~repro.proxy.workers.WorkerSupervisor` composes its workers.
"""

import asyncio
import random

import pytest

from repro.core import (
    GageConfig,
    GlobalAllocator,
    NodeScheduler,
    RDNAccounting,
    RequestScheduler,
    ShardCreditReport,
    Subscriber,
    SubscriberQueues,
)
from repro.core.grps import GENERIC_REQUEST, ResourceVector
from repro.proxy import WorkerSupervisor

#: An RPN that can deliver 100 generic requests per second.
RPN_CAPACITY = ResourceVector(1.0, 1.0, 12_500_000)


# -- GlobalAllocator --------------------------------------------------------


def vec(grps_amount):
    """grps_amount generic requests worth of resource."""
    return ResourceVector(0.010, 0.010, 2000.0).scaled(grps_amount)


def total(mapping):
    out = ResourceVector.ZERO
    for v in mapping.values():
        out = out + v
    return out


def assert_conserved(reports, answers, carry_used=ResourceVector.ZERO):
    """Sum of grants equals sum of reclaims plus consumed carry."""
    reclaimed = ResourceVector.ZERO
    granted = ResourceVector.ZERO
    for answer in answers.values():
        reclaimed = reclaimed + total(answer.reclaims)
        granted = granted + total(answer.grants)
    expect = reclaimed + carry_used
    assert granted.cpu_s == pytest.approx(expect.cpu_s)
    assert granted.disk_s == pytest.approx(expect.disk_s)
    assert granted.net_bytes == pytest.approx(expect.net_bytes)


def test_rebalance_with_no_backlog_is_a_net_noop():
    allocator = GlobalAllocator({"a": 100.0, "b": 50.0})
    reports = [
        ShardCreditReport(0, unused={"a": vec(3)}),
        ShardCreditReport(1, unused={"b": vec(1)}),
    ]
    answers = allocator.rebalance(reports)
    assert answers[0].grants == answers[0].reclaims == {"a": vec(3)}
    assert answers[1].grants == answers[1].reclaims == {"b": vec(1)}
    assert_conserved(reports, answers)


def test_same_subscriber_credit_chases_its_backlog():
    """A subscriber's idle-shard credit moves to its backlogged shards."""
    allocator = GlobalAllocator({"a": 100.0})
    reports = [
        ShardCreditReport(0, unused={"a": vec(6)}),
        ShardCreditReport(1, backlog={"a": 2}),
        ShardCreditReport(2, backlog={"a": 1}),
    ]
    answers = allocator.rebalance(reports)
    # Backlog-weighted: shard 1 (depth 2) gets 2/3, shard 2 gets 1/3.
    assert answers[1].grants["a"].cpu_s == pytest.approx(vec(4).cpu_s)
    assert answers[2].grants["a"].cpu_s == pytest.approx(vec(2).cpu_s)
    assert answers[0].reclaims == {"a": vec(6)}
    assert answers[0].grants == {}
    assert_conserved(reports, answers)


def test_globally_idle_credit_becomes_grps_proportional_spare():
    """Credit of an everywhere-idle subscriber is re-granted by reservation."""
    allocator = GlobalAllocator({"idle": 300.0, "gold": 200.0, "bronze": 100.0})
    reports = [
        ShardCreditReport(0, unused={"idle": vec(9)}),
        ShardCreditReport(1, backlog={"gold": 5}),
        ShardCreditReport(2, backlog={"bronze": 5}),
    ]
    answers = allocator.rebalance(reports)
    gold = answers[1].grants["gold"]
    bronze = answers[2].grants["bronze"]
    assert gold.cpu_s == pytest.approx(vec(6).cpu_s)  # 200:100 split of 9
    assert bronze.cpu_s == pytest.approx(vec(3).cpu_s)
    assert_conserved(reports, answers)


def test_spare_split_is_equal_when_reservations_are_zero():
    allocator = GlobalAllocator({"idle": 100.0, "x": 0.0, "y": 0.0})
    reports = [
        ShardCreditReport(0, unused={"idle": vec(4)}),
        ShardCreditReport(1, backlog={"x": 1}),
        ShardCreditReport(2, backlog={"y": 1}),
    ]
    answers = allocator.rebalance(reports)
    assert answers[1].grants["x"].cpu_s == pytest.approx(vec(2).cpu_s)
    assert answers[2].grants["y"].cpu_s == pytest.approx(vec(2).cpu_s)
    assert_conserved(reports, answers)


def test_dead_shard_carry_rides_the_next_backlogged_rebalance():
    allocator = GlobalAllocator({"a": 100.0})
    allocator.reclaim({"a": vec(5)})
    assert allocator.carry_total() == vec(5)

    # No backlog yet: the carry is retained, not granted into the void.
    idle = allocator.rebalance([ShardCreditReport(0)])
    assert idle[0].grants == {}
    assert allocator.carry_total() == vec(5)

    # Once someone is backlogged, the carry re-enters the pool.
    reports = [ShardCreditReport(0, backlog={"a": 3})]
    answers = allocator.rebalance(reports)
    assert answers[0].grants["a"].cpu_s == pytest.approx(vec(5).cpu_s)
    assert allocator.carry_total() == ResourceVector.ZERO
    assert_conserved(reports, answers, carry_used=vec(5))


def test_reclaim_ignores_negative_balances():
    """A dead worker's debt is written off, never re-granted as credit."""
    allocator = GlobalAllocator({"a": 100.0})
    allocator.reclaim({"a": ResourceVector(-1.0, -1.0, -100.0)})
    assert allocator.carry_total() == ResourceVector.ZERO


def test_rebalance_conserves_credit_under_random_reports():
    rng = random.Random(11)
    names = ["s{}".format(i) for i in range(6)]
    allocator = GlobalAllocator({name: rng.uniform(0, 300) for name in names})
    for _ in range(20):
        reports = []
        for shard_id in range(4):
            unused = {
                name: vec(rng.uniform(0, 10))
                for name in names
                if rng.random() < 0.4
            }
            backlog = {name: rng.randrange(0, 5) for name in names}
            reports.append(
                ShardCreditReport(shard_id, unused=unused, backlog=backlog)
            )
        answers = allocator.rebalance(reports)
        assert_conserved(reports, answers)  # no dead-shard carry in play


# -- the allocator over RequestScheduler workers ------------------------------


def build_legacy(subscribers, config, rpns=4, capacity=RPN_CAPACITY):
    """The single-instance control plane, assembled by hand."""
    queues = SubscriberQueues()
    accounting = RDNAccounting(table=queues.table)
    nodes = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
    for sub in subscribers:
        queues.register(sub)
        accounting.register(sub)
    for index in range(rpns):
        nodes.add_node("rpn{}".format(index), capacity)
    scheduler = RequestScheduler(
        config, queues, accounting, nodes, dispatch_fn=lambda req, rpn, name, predicted: None
    )
    return scheduler, queues


def test_single_shard_accounting_cycle_is_a_noop(monkeypatch):
    """One worker: the supervisor's control loop never rebalances."""
    rounds = {1: [], 2: []}
    for workers, calls in rounds.items():
        supervisor = WorkerSupervisor(
            [Subscriber("a", 100)],
            {"backend0": ("127.0.0.1", 9000)},
            config=GageConfig(accounting_cycle_s=0.001),
            workers=workers,
        )

        def reap(now, supervisor=supervisor, calls=calls):
            calls.append("reap")
            supervisor._stopping = calls.count("reap") >= 3

        monkeypatch.setattr(supervisor, "_reap_dead", reap)
        monkeypatch.setattr(supervisor, "_rebalance", lambda calls=calls: calls.append("rebalance"))
        asyncio.run(supervisor._control_loop())
    assert rounds[1] == ["reap"] * 3
    assert rounds[2].count("rebalance") == 3


def test_credit_report_offers_hoard_and_reports_backlog():
    config = GageConfig(spare_policy="none", dispatch_window_s=10.0)
    subscribers = [Subscriber("a", 100), Subscriber("b", 100)]
    scheduler, queues = build_legacy(subscribers, config, rpns=1)
    for _ in range(5):  # both idle: balances accrue toward the cap
        scheduler.run_cycle()
    queues.get("b").offer("req-held")  # backlogged but never scheduled here
    unused, backlog = scheduler.credit_report()
    assert backlog == {"b": 1}
    assert "b" not in unused
    # "a" hoards 4 cycles of credit (the cap); it offers all but one
    # cycle's refill back to the pool.
    offered = unused["a"]
    sid = queues.get("a").sid
    credit, _ = scheduler.ledger.cycle_credit(sid, subscribers[0])
    assert offered.cpu_s == pytest.approx(credit.scaled(3.0).cpu_s)


def test_credit_report_wakes_no_settled_subscriber():
    subscribers = [Subscriber("sub{}".format(i), 100) for i in range(10)]
    scheduler, _queues = build_legacy(subscribers, GageConfig(), rpns=1)
    for _ in range(10):  # all idle: everyone reaches the cap and settles
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    unused, backlog = scheduler.credit_report()
    assert scheduler.accounting.drain_dirty() == []  # nobody to re-visit next cycle
    assert scheduler.active_count() == 0
    # Everyone sits at the 4-cycle hoard cap and offers all but one refill.
    assert backlog == {}
    assert unused == {
        sub.name: GENERIC_REQUEST.scaled(4.0) - GENERIC_REQUEST
        for sub in subscribers
    }


def test_cross_shard_grant_moves_balance_between_shards():
    """Two workers: the idle worker's hoard funds the backlogged one.

    Composed as ``WorkerSupervisor`` composes its workers: every worker
    registers every subscriber at ``reservation / N`` over ``1 / N`` of
    the capacity, and the allocator keeps the global reservations.
    """
    config = GageConfig(spare_policy="reservation", dispatch_window_s=10.0)
    subscribers = [Subscriber("idle", 100), Subscriber("busy", 100)]
    fraction = 0.5
    workers = [
        build_legacy(
            [Subscriber(sub.name, sub.reservation_grps * fraction) for sub in subscribers],
            config,
            rpns=1,
            capacity=RPN_CAPACITY.scaled(fraction),
        )
        for _ in range(2)
    ]
    allocator = GlobalAllocator({sub.name: sub.reservation_grps for sub in subscribers})
    (idle_scheduler, idle_queues), (busy_scheduler, busy_queues) = workers
    for _ in range(5):
        for scheduler, _queues in workers:
            scheduler.run_cycle()  # everyone idle: balances hoard to the cap
    for i in range(500):
        busy_queues.get("busy").offer("r{}".format(i))
    before = busy_scheduler.accounting.account("busy").balance

    reports = []
    for worker_id, (scheduler, _queues) in enumerate(workers):
        unused, backlog = scheduler.credit_report()
        reports.append(ShardCreditReport(worker_id, unused=unused, backlog=backlog))
    answers = allocator.rebalance(reports)
    for worker_id, (scheduler, _queues) in enumerate(workers):
        scheduler.apply_credit_grant(answers[worker_id].net())

    after = busy_scheduler.accounting.account("busy").balance
    assert after.cpu_s > before.cpu_s  # the grant landed
    idle_sid = idle_queues.get("idle").sid
    assert idle_scheduler.accounting.account("idle").balance.cpu_s == pytest.approx(
        idle_scheduler.ledger.cycle_credit(idle_sid, idle_queues.get("idle").subscriber)[0].cpu_s
    )  # the hoard was reclaimed down to one cycle's refill
    assert set(answers) == {0, 1}
