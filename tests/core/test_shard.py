"""Tests for the sharded control plane (repro.core.shard)."""

import random

import pytest

from repro.core import (
    GageConfig,
    GlobalAllocator,
    NodeScheduler,
    RDNAccounting,
    RequestScheduler,
    ShardCreditReport,
    ShardedScheduler,
    ShardMap,
    Subscriber,
    SubscriberQueues,
)
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.grps import GENERIC_REQUEST, ResourceVector

#: An RPN that can deliver 100 generic requests per second.
RPN_CAPACITY = ResourceVector(1.0, 1.0, 12_500_000)


# -- ShardMap ---------------------------------------------------------------


def test_shard_map_is_stable_across_instances():
    names = ["site{}".format(i) for i in range(50)]
    first = ShardMap(4)
    second = ShardMap(4)
    assert first.assignments(names) == second.assignments(names)
    for name in names:
        assert 0 <= first.shard_of(name) < 4


def test_shard_map_partition_covers_every_name_once():
    names = ["s{}".format(i) for i in range(40)]
    groups = ShardMap(3).partition(names)
    assert len(groups) == 3
    flat = [name for group in groups for name in group]
    assert sorted(flat) == sorted(names)


def test_shard_map_single_shard_takes_everything():
    names = ["a", "b", "c"]
    assert ShardMap(1).partition(names) == [names]


def test_shard_map_rejects_zero_shards():
    with pytest.raises(ValueError):
        ShardMap(0)


def test_shard_map_is_independent_of_registration_order():
    shuffled = ["x{}".format(i) for i in range(20)]
    rng = random.Random(3)
    rng.shuffle(shuffled)
    by_order = ShardMap(4).assignments(shuffled)
    by_sorted = ShardMap(4).assignments(sorted(shuffled))
    assert by_order == by_sorted


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


# -- ShardedScheduler -------------------------------------------------------


def build_legacy(subscribers, config, rpns=4):
    """The single-instance control plane, assembled by hand."""
    queues = SubscriberQueues()
    accounting = RDNAccounting(table=queues.table)
    nodes = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
    for sub in subscribers:
        queues.register(sub)
        accounting.register(sub)
    for index in range(rpns):
        nodes.add_node("rpn{}".format(index), RPN_CAPACITY)
    scheduler = RequestScheduler(
        config, queues, accounting, nodes, dispatch_fn=lambda req, rpn, name, predicted: None
    )
    return scheduler, queues


def feedback_message(rpn_id, usage_per_request, completed_by_name, now):
    return AccountingMessage(
        rpn_id=rpn_id,
        cycle_start_s=now - 0.1,
        cycle_end_s=now,
        total_usage=ResourceVector.ZERO,
        per_subscriber={
            name: RPNUsageReport(usage_per_request.scaled(count), count)
            for name, count in completed_by_name.items()
        },
    )


def test_single_shard_matches_legacy_scheduler_decisions():
    """workers=1 constraint: the sharded path must make byte-identical
    scheduling decisions to a directly-constructed RequestScheduler."""
    subscribers = [
        Subscriber("gold", reservation_grps=200),
        Subscriber("silver", reservation_grps=120),
        Subscriber("bronze", reservation_grps=50),
    ]
    config = GageConfig(spare_policy="reservation")
    capacities = {"rpn{}".format(i): RPN_CAPACITY for i in range(4)}

    legacy, legacy_queues = build_legacy(subscribers, config)
    sharded = ShardedScheduler(subscribers, capacities, config=config, num_shards=1)

    rng = random.Random(7)
    legacy_trace = []
    sharded_trace = []
    usage = ResourceVector(0.012, 0.008, 2100.0)
    for cycle in range(200):
        for sub in subscribers:
            # A fixed-seed arrival pattern, identical for both planes.
            arrivals = rng.randrange(0, 4)
            for i in range(arrivals):
                request = "{}-{}-{}".format(sub.name, cycle, i)
                legacy_queues.get(sub.name).offer(request)
                sharded.offer(sub.name, request)
        legacy_trace.extend(
            (d.subscriber, d.rpn_id, d.predicted, d.spare)
            for d in legacy.run_cycle()
        )
        sharded_trace.extend(
            (d.subscriber, d.rpn_id, d.predicted, d.spare)
            for d in sharded.run_cycle()
        )
        if cycle % 10 == 9:
            completed = {sub.name: rng.randrange(0, 3) for sub in subscribers}
            now = 0.01 * (cycle + 1)
            legacy.apply_feedback(
                feedback_message("rpn0", usage, completed, now)
            )
            sharded.apply_feedback(
                feedback_message("rpn0", usage, completed, now)
            )
            sharded.run_accounting_cycle()

    assert legacy_trace == sharded_trace
    assert len(legacy_trace) > 100  # the workload actually dispatched


def test_single_shard_accounting_cycle_is_a_noop():
    sub = Subscriber("a", reservation_grps=100)
    sharded = ShardedScheduler([sub], {"rpn0": RPN_CAPACITY}, num_shards=1)
    assert sharded.run_accounting_cycle() == {}
    assert sharded.allocator.rebalances == 0


def test_requests_route_to_the_home_shard():
    subscribers = [Subscriber("s{}".format(i), 50) for i in range(8)]
    capacities = {"rpn0": RPN_CAPACITY}
    sharded = ShardedScheduler(
        subscribers, capacities, num_shards=4, config=GageConfig()
    )
    for sub in subscribers:
        assert sharded.offer(sub.name, "req")
        shard = sharded.shard_for(sub.name)
        assert len(shard.queues.get(sub.name)) == 1
    assert not sharded.offer("unknown", "req")


def test_credit_report_offers_hoard_and_reports_backlog():
    config = GageConfig(spare_policy="none", dispatch_window_s=10.0)
    subscribers = [Subscriber("a", 100), Subscriber("b", 100)]
    sharded = ShardedScheduler(
        subscribers, {"rpn0": RPN_CAPACITY}, config=config, num_shards=1
    )
    shard = sharded.shards[0]
    for _ in range(5):  # both idle: balances accrue toward the cap
        shard.run_cycle()
    shard.offer("b", "req-held")  # backlogged but never scheduled here
    report = shard.credit_report()
    assert report.backlog == {"b": 1}
    assert "b" not in report.unused
    # "a" hoards 4 cycles of credit (the cap); it offers all but one
    # cycle's refill back to the pool.
    offered = report.unused["a"]
    sid = shard.queues.get("a").sid
    credit, _ = shard.scheduler.ledger.cycle_credit(sid, subscribers[0])
    assert offered.cpu_s == pytest.approx(credit.scaled(3.0).cpu_s)


def test_credit_report_wakes_no_settled_subscriber():
    subscribers = [Subscriber("sub{}".format(i), 100) for i in range(10)]
    sharded = ShardedScheduler(subscribers, {"rpn0": RPN_CAPACITY}, num_shards=1)
    shard = sharded.shards[0]
    for _ in range(10):  # all idle: everyone reaches the cap and settles
        shard.run_cycle()
    assert shard.scheduler.active_count() == 0
    report = shard.credit_report()
    assert shard.accounting.drain_dirty() == []  # nobody to re-visit next cycle
    assert shard.scheduler.active_count() == 0
    # Everyone sits at the 4-cycle hoard cap and offers all but one refill.
    assert report.backlog == {}
    assert report.unused == {
        sub.name: GENERIC_REQUEST.scaled(4.0) - GENERIC_REQUEST
        for sub in subscribers
    }


def test_cross_shard_grant_moves_balance_between_shards():
    """Two shards: the idle subscriber's hoard funds the backlogged one."""
    config = GageConfig(spare_policy="reservation", dispatch_window_s=10.0)
    # Pick names that land on different shards of a 2-shard map.
    shard_map = ShardMap(2)
    names = ["sub{}".format(i) for i in range(10)]
    on_zero = [n for n in names if shard_map.shard_of(n) == 0][0]
    on_one = [n for n in names if shard_map.shard_of(n) == 1][0]
    subscribers = [Subscriber(on_zero, 100), Subscriber(on_one, 100)]
    sharded = ShardedScheduler(
        subscribers, {"rpn0": RPN_CAPACITY}, config=config, num_shards=2
    )
    idle_shard = sharded.shard_for(on_zero)
    busy_shard = sharded.shard_for(on_one)
    for _ in range(5):
        sharded.run_cycle()  # on_zero hoards credit; on_one idle too
    for i in range(500):
        busy_shard.offer(on_one, "r{}".format(i))
    before = busy_shard.accounting.account(on_one).balance
    answers = sharded.run_accounting_cycle()
    after = busy_shard.accounting.account(on_one).balance
    assert after.cpu_s > before.cpu_s  # the grant landed
    assert idle_shard.accounting.account(on_zero).balance.cpu_s == pytest.approx(
        idle_shard.scheduler.ledger.cycle_credit(
            idle_shard.queues.get(on_zero).sid, subscribers[0]
        )[0].cpu_s
    )  # the hoard was reclaimed down to one cycle's refill
    assert set(answers) == {0, 1}
