"""The credit hierarchy under subscriber churn (join/leave mid-run).

* **Conservation** — across any sequence of rebalances interleaved with
  ``set_reservation``/``remove_reservation`` churn, every rebalance
  grants exactly what it reclaims plus whatever carry it consumed; no
  credit is minted or destroyed by churn.
* **Fresh joins** — one worker's :class:`RequestScheduler` stops
  scheduling a departed subscriber, and a re-join starts from one
  cycle's credit rather than the old hoard.
"""

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
from repro.core.grps import ResourceVector

#: An RPN that can deliver 100 generic requests per second.
RPN_CAPACITY = ResourceVector(1.0, 1.0, 12_500_000)


def vec(grps_amount):
    return ResourceVector(0.010, 0.010, 2000.0).scaled(grps_amount)


def total(mapping):
    out = ResourceVector.ZERO
    for v in mapping.values():
        out = out + v
    return out


def granted_and_reclaimed(answers):
    reclaimed = ResourceVector.ZERO
    granted = ResourceVector.ZERO
    for answer in answers.values():
        reclaimed = reclaimed + total(answer.reclaims)
        granted = granted + total(answer.grants)
    return granted, reclaimed


# -- GlobalAllocator conservation under churn --------------------------------


def test_rebalance_conserves_credit_across_reservation_churn():
    """Σ grants == Σ reclaims + carry consumed, every round, while
    subscribers join and leave between rounds."""
    rng = random.Random(11)
    allocator = GlobalAllocator({"s0": 100.0, "s1": 80.0})
    live = ["s0", "s1"]
    next_index = 2
    for round_index in range(60):
        # Churn between rebalances.
        if rng.random() < 0.5:
            name = "s{}".format(next_index)
            next_index += 1
            allocator.set_reservation(name, float(rng.randrange(10, 200)))
            live.append(name)
        if len(live) > 2 and rng.random() < 0.4:
            allocator.remove_reservation(live.pop(rng.randrange(len(live))))

        carry_before = allocator.carry_total()
        reports = []
        for shard_id in range(3):
            unused = {
                name: vec(rng.randrange(0, 5))
                for name in live
                if rng.random() < 0.5
            }
            backlog = {name: rng.randrange(1, 4) for name in live if rng.random() < 0.4}
            reports.append(
                ShardCreditReport(shard_id, unused=unused, backlog=backlog)
            )
        answers = allocator.rebalance(reports)
        carry_after = allocator.carry_total()

        granted, reclaimed = granted_and_reclaimed(answers)
        expect = reclaimed + carry_before - carry_after
        assert granted.cpu_s == pytest.approx(expect.cpu_s)
        assert granted.disk_s == pytest.approx(expect.disk_s)
        assert granted.net_bytes == pytest.approx(expect.net_bytes)


def test_removed_subscriber_carry_keeps_riding():
    """Credit reclaimed from a departed subscriber is not destroyed: it
    re-enters the pool on the next backlogged rebalance."""
    allocator = GlobalAllocator({"a": 100.0, "b": 100.0})
    # Round 1: a's unused credit is reclaimed but nobody is backlogged,
    # so it lands in the carry pool.
    answers = allocator.rebalance([ShardCreditReport(0, unused={"a": vec(4)})])
    assert answers[0].grants == answers[0].reclaims == {"a": vec(4)}
    # a departs while idle — with hoarded credit at the allocator level.
    allocator.rebalance([ShardCreditReport(0, unused={"a": vec(4)}, backlog={})])
    allocator.remove_reservation("a")
    carried = allocator.carry_total()
    # Round 2: b is backlogged; whatever carry existed is granted to b.
    answers = allocator.rebalance([ShardCreditReport(0, backlog={"b": 3})])
    granted, reclaimed = granted_and_reclaimed(answers)
    expect = reclaimed + carried - allocator.carry_total()
    assert granted.cpu_s == pytest.approx(expect.cpu_s)


# -- RequestScheduler churn ---------------------------------------------------


def build_scheduler(subscribers):
    """One worker's control plane (queues, accounting, scheduler)."""
    config = GageConfig()
    queues = SubscriberQueues()
    accounting = RDNAccounting(table=queues.table)
    nodes = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
    for sub in subscribers:
        queues.register(sub)
        accounting.register(sub)
    nodes.add_node("rpn0", RPN_CAPACITY)
    scheduler = RequestScheduler(
        config, queues, accounting, nodes,
        dispatch_fn=lambda req, rpn, name, predicted: None,
    )
    return scheduler, queues, accounting


def remove(queues, accounting, name):
    """A departure: accounting first, so pending predictions are forgotten."""
    if name not in queues:
        return False
    accounting.unregister(name)
    queues.unregister(name)
    return True


def test_remove_subscriber_stops_routing_and_scheduling():
    scheduler, queues, accounting = build_scheduler(
        [Subscriber("a", 150), Subscriber("b", 150)]
    )
    assert remove(queues, accounting, "a")
    assert not remove(queues, accounting, "a")  # idempotent
    assert queues.get("a") is None
    assert queues.get("b").offer("req")
    decisions = scheduler.run_cycle()
    assert {d.subscriber for d in decisions} == {"b"}


def test_readding_a_removed_subscriber_starts_fresh():
    scheduler, queues, accounting = build_scheduler([Subscriber("a", 100)])
    for _ in range(10):
        scheduler.run_cycle()  # hoard credit to the cap
    remove(queues, accounting, "a")
    sub = Subscriber("a", reservation_grps=100)
    queues.register(sub)
    accounting.register(sub)
    for i in range(20):
        queues.get("a").offer("req-{}".format(i))
    decisions = scheduler.run_cycle()
    # A fresh join has exactly one cycle of credit — the old hoard died
    # with the old registration.
    assert len([d for d in decisions if not d.spare]) == 1
