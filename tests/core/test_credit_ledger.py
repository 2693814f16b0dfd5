"""Tests for the extracted credit ledger (repro.core.credit)."""

import pytest

from repro.core import CreditLedger, GageConfig, Subscriber, SubscriberQueues
from repro.core.grps import GENERIC_REQUEST, ResourceVector


def make_ledger(**config_kwargs):
    return CreditLedger(GageConfig(**config_kwargs))


def test_cycle_credit_is_one_cycles_reservation():
    ledger = make_ledger(scheduling_cycle_s=0.010)
    sub = Subscriber("a", reservation_grps=100)
    credit, capped = ledger.cycle_credit(0, sub)
    # 100 GRPS * 10 ms = 1 generic request per cycle.
    assert credit == GENERIC_REQUEST
    assert capped == GENERIC_REQUEST.scaled(4.0)


def test_cycle_credit_memo_tracks_reservation_changes():
    ledger = make_ledger()
    first, _ = ledger.cycle_credit(0, Subscriber("a", reservation_grps=100))
    again, _ = ledger.cycle_credit(0, Subscriber("a", reservation_grps=100))
    assert again == first
    changed, _ = ledger.cycle_credit(0, Subscriber("a", reservation_grps=200))
    assert changed == first.scaled(2.0)


def test_refill_cap_never_below_predicted_request():
    capped = GENERIC_REQUEST.scaled(4.0)
    huge = GENERIC_REQUEST.scaled(10.0)
    cap = CreditLedger.refill_cap(capped, huge)
    # A heavy-tailed subscriber (requests > cap) still fits 1.5 requests.
    assert cap == huge.scaled(1.5)
    small = GENERIC_REQUEST.scaled(0.5)
    assert CreditLedger.refill_cap(capped, small) == capped


def test_spare_pool_is_capacity_minus_reservations():
    ledger = make_ledger(scheduling_cycle_s=0.010)
    for sub in [Subscriber("a", 100), Subscriber("b", 50)]:
        ledger.add_reservation(sub)
    capacity = ResourceVector(1.0, 1.0, 12_500_000.0)  # 100 GRPS-ish
    pool = ledger.spare_pool_tracked(capacity)
    reserved = GENERIC_REQUEST.scaled(1.5)  # 150 GRPS * 10 ms
    expect = (capacity.scaled(0.010) - reserved).clamped_min(0.0)
    assert pool == expect
    # Asking again returns the same answer.
    assert ledger.spare_pool_tracked(capacity) == expect


def test_spare_pool_clamps_overbooked_cluster_to_zero():
    ledger = make_ledger(scheduling_cycle_s=0.010)
    ledger.add_reservation(Subscriber("a", 10_000))
    assert ledger.spare_pool_tracked(ResourceVector(1.0, 1.0, 12_500_000.0)) == (
        ResourceVector.ZERO
    )


def test_spare_weights_follow_reservations():
    ledger = make_ledger(spare_policy="reservation")
    queues = SubscriberQueues()
    for sub in [Subscriber("a", 200), Subscriber("b", 100)]:
        queues.register(sub).offer("req")
    weights = ledger.spare_weights(queues.backlogged())
    assert weights["a"] == pytest.approx(2.0 / 3.0)
    assert weights["b"] == pytest.approx(1.0 / 3.0)


def test_spare_weights_equal_split_when_all_zero():
    ledger = make_ledger(spare_policy="reservation")
    queues = SubscriberQueues()
    for name in ("a", "b"):
        queues.register(Subscriber(name, 0)).offer("req")
    weights = ledger.spare_weights(queues.backlogged())
    assert weights == {"a": 0.5, "b": 0.5}


def test_spare_weights_empty_when_policy_is_none():
    ledger = make_ledger(spare_policy="none")
    queues = SubscriberQueues()
    queues.register(Subscriber("a", 100)).offer("req")
    assert ledger.spare_weights(queues.backlogged()) == {}


def test_deficit_rolls_over_capped_and_goes_stale():
    ledger = make_ledger()
    share = GENERIC_REQUEST.scaled(1.0)
    predicted = GENERIC_REQUEST
    # Nothing stored yet: roll-in returns the share untouched.
    assert ledger.roll_in_deficit("a", share, predicted) == share
    # Store a huge remainder; roll-in caps it at 2x share (>1.5 predicted).
    ledger.store_deficit("a", GENERIC_REQUEST.scaled(50.0))
    rolled = ledger.roll_in_deficit("a", share, predicted)
    assert rolled == share + share.scaled(2.0)
    # A queue idle this cycle forfeits its stored deficit.
    ledger.drop_stale_deficits({"b"})
    assert ledger.roll_in_deficit("a", share, predicted) == share


def test_store_deficit_clamps_negative_remainder():
    ledger = make_ledger()
    ledger.store_deficit("a", ResourceVector(-1.0, 0.5, -3.0))
    share = ResourceVector.ZERO
    rolled = ledger.roll_in_deficit("a", share, ResourceVector.ZERO)
    assert rolled == ResourceVector.ZERO + ResourceVector(0.0, 0.0, 0.0)
    # Only the positive component survives under a permissive cap.
    big_share = ResourceVector(1.0, 1.0, 1.0)
    ledger2 = make_ledger()
    ledger2.store_deficit("a", ResourceVector(-1.0, 0.5, -3.0))
    rolled2 = ledger2.roll_in_deficit("a", big_share, ResourceVector.ZERO)
    assert rolled2 == big_share + ResourceVector(0.0, 0.5, 0.0)
