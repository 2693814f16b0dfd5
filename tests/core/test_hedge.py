"""Unit tests for the hedging layer and its credit-conservation math.

The :class:`HedgeManager` is exercised against plain-lambda transport
hooks (no RDN, no proxy) and a real :class:`RDNAccounting` and
:class:`NodeScheduler`, so its clone charges and loser refunds are
checked on the ledgers themselves.  :class:`RDNAccounting` is also
driven by randomized operation sequences: whatever mix of dispatches,
completions, cancellations, and node deaths occurs, the conservation
ledger must balance exactly —

    Σcharged == Σbacked_out + Σrefunded + Σforgotten + Σpending
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounting import RDNAccounting
from repro.core.config import GageConfig
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.hedge import HedgeHooks, HedgeManager
from repro.core.node_scheduler import NodeScheduler
from repro.core.subscriber import Subscriber
from repro.resources import ResourceVector
from repro.sim import Environment

PREDICTED = ResourceVector(cpu_s=0.010, disk_s=0.010, net_bytes=2000.0)
NODES = ("rpn1", "rpn2", "rpn3", "rpn4", "rpn5")


class HookLog:
    """Recording transport hooks whose behavior the test scripts per-call."""

    def __init__(self, clone_target="rpn2", cancel_result=True):
        self.calls = []
        self.clone_target = clone_target
        self.cancel_result = cancel_result

    def hooks(self) -> HedgeHooks:
        return HedgeHooks(
            pick_clone=self._pick_clone,
            dispatch_clone=lambda item, rpn, sub: self.calls.append(
                ("dispatch", rpn, sub)
            ),
            cancel=self._cancel,
        )

    def _pick_clone(self, item, predicted, exclude):
        self.calls.append(("pick", frozenset(exclude)))
        return None if self.clone_target in exclude else self.clone_target

    def _cancel(self, item, rpn, sub):
        self.calls.append(("cancel", rpn, sub))
        return self.cancel_result

    def named(self, kind):
        return [c for c in self.calls if c[0] == kind]


def make_manager(env, log, **config_kwargs):
    config_kwargs.setdefault("hedge_policy", "fixed")
    config = GageConfig(**config_kwargs)
    accounting = RDNAccounting()
    accounting.register(Subscriber("site1", 100))
    nodes = NodeScheduler(window_s=10.0)
    for rpn in NODES:
        nodes.add_node(rpn, ResourceVector(cpu_s=1.0, disk_s=1.0, net_bytes=1e9))
    return HedgeManager(
        lambda: env.now, env.call_later, config, log.hooks(), accounting, nodes
    )


def dispatch(manager, item, rpn="rpn1"):
    """A primary dispatch as the scheduler makes it: charged, then tracked."""
    manager.accounting.on_dispatch("site1", rpn, PREDICTED)
    manager.node_scheduler.on_dispatch(rpn, PREDICTED)
    manager.on_primary_dispatch(item, rpn, "site1", PREDICTED)


def pending(manager, rpn):
    return list(manager.accounting.account("site1").pending.get(rpn, ()))


def charged_clones(manager):
    """Dispatches the manager itself charged (every node but rpn1)."""
    return sum(manager.node_scheduler.get(rpn).dispatched for rpn in NODES[1:])


def assert_conserved(manager):
    assert manager.accounting.conservation_delta() == ResourceVector.ZERO


# -- delay policy -------------------------------------------------------


def test_fixed_policy_uses_configured_delay():
    env = Environment()
    manager = make_manager(env, HookLog(), hedge_delay_s=0.123)
    assert manager.hedge_delay() == pytest.approx(0.123)


def test_p95_policy_falls_back_until_enough_samples():
    env = Environment()
    manager = make_manager(
        env, HookLog(), hedge_policy="p95", hedge_delay_s=0.123
    )
    for _ in range(9):
        manager.latency.observe(0.020)
    assert manager.hedge_delay() == pytest.approx(0.123)
    manager.latency.observe(0.020)
    assert manager.hedge_delay() == pytest.approx(
        manager.latency.quantile(0.95)
    )


def test_p95_samples_stay_with_their_manager():
    env = Environment()
    first = make_manager(env, HookLog(), hedge_policy="p95", hedge_delay_s=0.05)
    second = make_manager(env, HookLog(), hedge_policy="p95", hedge_delay_s=0.05)
    for _ in range(20):
        first.latency.observe(2.0)
    assert first.hedge_delay() > 1.0
    assert second.hedge_delay() == pytest.approx(0.05)


# -- clone lifecycle ----------------------------------------------------


def test_clone_fires_after_delay_and_excludes_primary():
    env = Environment()
    log = HookLog(clone_target="rpn2")
    manager = make_manager(env, log, hedge_delay_s=0.050)
    item = object()
    dispatch(manager, item)
    env.run(until=env.timeout(0.049))
    assert log.named("pick") == []
    assert charged_clones(manager) == 0
    env.run(until=env.timeout(0.002))
    assert log.named("pick") == [("pick", frozenset({"rpn1"}))]
    assert log.named("dispatch") == [("dispatch", "rpn2", "site1")]
    # The clone is charged the primary's prediction, on both ledgers.
    assert pending(manager, "rpn2") == [PREDICTED]
    assert manager.node_scheduler.get("rpn2").outstanding == PREDICTED
    assert_conserved(manager)


def test_completion_before_delay_suppresses_clone():
    env = Environment()
    log = HookLog()
    manager = make_manager(env, log, hedge_delay_s=0.050)
    item = object()
    dispatch(manager, item)
    env.run(until=env.timeout(0.010))
    assert manager.on_completion(item, "rpn1") is True
    env.run(until=env.timeout(0.100))
    assert charged_clones(manager) == 0
    assert log.named("dispatch") == []
    assert log.named("cancel") == []
    assert pending(manager, "rpn1") == [PREDICTED]  # the winner keeps its charge


def test_winner_cancels_refunds_and_discards_loser():
    env = Environment()
    log = HookLog(clone_target="rpn2", cancel_result=True)
    manager = make_manager(env, log, hedge_delay_s=0.050)
    item = object()
    dispatch(manager, item)
    env.run(until=env.timeout(0.060))  # the clone has fired
    # The clone wins; the primary becomes the loser and is torn down:
    # the transport's cancel aborts and discards it, the manager refunds.
    assert manager.on_completion(item, "rpn2") is True
    assert log.named("cancel") == [("cancel", "rpn1", "site1")]
    assert pending(manager, "rpn1") == []
    assert manager.node_scheduler.get("rpn1").outstanding == ResourceVector.ZERO
    assert manager._tm_refunded_grps.value > 0
    # The winner's charge stays, to be backed out by its completion.
    assert pending(manager, "rpn2") == [PREDICTED]
    assert_conserved(manager)
    # Fully resolved: nothing tracked, nothing further fires.
    assert manager._entries == {}


def test_uncancellable_loser_completion_is_suppressed():
    env = Environment()
    log = HookLog(clone_target="rpn2", cancel_result=False)
    manager = make_manager(env, log, hedge_delay_s=0.050)
    item = object()
    dispatch(manager, item)
    env.run(until=env.timeout(0.060))
    assert manager.on_completion(item, "rpn2") is True
    # Cancellation missed: no refund; the loser will finish on its own
    # and its completion must not count a second time.
    assert pending(manager, "rpn1") == [PREDICTED]
    assert manager._tm_refunded_grps.value == 0
    assert manager.on_completion(item, "rpn1") is False
    assert manager._entries == {}


def test_loser_on_forgotten_node_is_not_refunded_twice():
    env = Environment()
    log = HookLog(clone_target="rpn2")
    manager = make_manager(env, log, hedge_delay_s=0.050)
    item = object()
    dispatch(manager, item)
    env.run(until=env.timeout(0.060))
    # rpn1's predictions were already restored wholesale (node death).
    manager.accounting.forget_rpn("rpn1")
    outstanding = manager.node_scheduler.get("rpn1").outstanding
    assert manager.on_completion(item, "rpn2") is True
    assert log.named("cancel") == [("cancel", "rpn1", "site1")]
    assert manager._tm_cancelled.value == 1
    assert manager._tm_refunded_grps.value == 0
    assert manager.node_scheduler.get("rpn1").outstanding == outstanding
    assert_conserved(manager)


def test_untracked_completion_counts():
    env = Environment()
    manager = make_manager(env, HookLog())
    assert manager.on_completion(object(), "rpn1") is True


def test_no_alternate_leaves_request_unhedged():
    env = Environment()
    log = HookLog(clone_target="rpn1")  # the only node is the primary
    manager = make_manager(env, log, hedge_delay_s=0.050)
    item = object()
    dispatch(manager, item)
    env.run(until=env.timeout(0.060))
    assert log.named("pick") == [("pick", frozenset({"rpn1"}))]
    assert charged_clones(manager) == 0
    assert manager.on_completion(item, "rpn1") is True


def test_max_clones_bounds_extra_copies():
    env = Environment()
    log = HookLog(clone_target="rpn2")
    manager = make_manager(env, log, hedge_delay_s=0.010)

    # Make every pick return a fresh node so cloning could in principle
    # continue forever; one timer per dispatch stops it at one extra copy.
    targets = iter(["rpn2", "rpn3", "rpn4", "rpn5"])
    manager.hooks.pick_clone = lambda item, pred, excl: next(targets)
    item = object()
    dispatch(manager, item)
    env.run(until=env.timeout(0.200))
    assert charged_clones(manager) == 1


def test_filter_requeue_node_death_triage():
    env = Environment()
    log = HookLog(clone_target="rpn2")
    manager = make_manager(env, log, hedge_delay_s=0.050)
    hedged = object()
    sole = object()
    stranger = object()
    dispatch(manager, hedged)
    dispatch(manager, sole)
    env.run(until=env.timeout(0.060))  # both earn a clone on rpn2
    # rpn1 dies: both lose their rpn1 copy, but each still has a live
    # sibling on rpn2 — neither deserves a requeue.  The untracked
    # request always does.
    requeue = manager.filter_requeue("rpn1", [hedged, sole, stranger])
    assert requeue == [stranger]
    # rpn2 dies too: now each tracked request lost its last copy.
    requeue = manager.filter_requeue("rpn2", [hedged, sole])
    assert requeue == [hedged, sole]
    assert manager._entries == {}


# -- NodeScheduler exclude ----------------------------------------------


def test_pick_exclude_skips_nodes_holding_a_copy():
    scheduler = NodeScheduler(window_s=10.0)
    capacity = ResourceVector(cpu_s=1.0, disk_s=1.0, net_bytes=1e9)
    scheduler.add_node("rpn1", capacity)
    scheduler.add_node("rpn2", capacity)
    assert scheduler.pick(PREDICTED) == "rpn1"
    assert scheduler.pick(PREDICTED, exclude=frozenset({"rpn1"})) == "rpn2"
    assert (
        scheduler.pick(PREDICTED, exclude=frozenset({"rpn1", "rpn2"})) is None
    )


# -- accounting refunds -------------------------------------------------


def make_accounting():
    accounting = RDNAccounting()
    accounting.register(Subscriber("site1", 100))
    return accounting


def test_on_cancel_refunds_newest_matching_prediction():
    accounting = make_accounting()
    small = ResourceVector(0.001, 0.0, 100.0)
    accounting.on_dispatch("site1", "rpn1", small)
    accounting.on_dispatch("site1", "rpn1", PREDICTED)
    balance_before = accounting.account("site1").balance
    assert accounting.on_cancel("site1", "rpn1", PREDICTED) is True
    account = accounting.account("site1")
    assert account.balance == balance_before + PREDICTED
    # The older prediction is untouched and still pending.
    assert list(account.pending["rpn1"]) == [small]
    assert accounting.conservation_delta() == ResourceVector.ZERO


def test_on_cancel_falls_back_to_newest_when_vector_is_gone():
    accounting = make_accounting()
    small = ResourceVector(0.001, 0.0, 100.0)
    accounting.on_dispatch("site1", "rpn1", small)
    # The exact vector was never charged: drop the newest instead so
    # count-based feedback alignment survives.
    assert accounting.on_cancel("site1", "rpn1", PREDICTED) is True
    assert not accounting.account("site1").pending["rpn1"]
    assert accounting.conservation_delta() == ResourceVector.ZERO


def test_on_cancel_with_nothing_pending_is_false():
    accounting = make_accounting()
    assert accounting.on_cancel("site1", "rpn1", PREDICTED) is False
    assert accounting.on_cancel("nosuch", "rpn1", PREDICTED) is False
    # Refund after forget_rpn restored everything: nothing to refund.
    accounting.on_dispatch("site1", "rpn1", PREDICTED)
    accounting.forget_rpn("rpn1")
    assert accounting.on_cancel("site1", "rpn1", PREDICTED) is False
    assert accounting.conservation_delta() == ResourceVector.ZERO


def test_cancel_then_feedback_backs_out_remaining_completions():
    accounting = make_accounting()
    accounting.on_dispatch("site1", "rpn1", PREDICTED)
    accounting.on_dispatch("site1", "rpn1", PREDICTED)
    accounting.on_cancel("site1", "rpn1", PREDICTED)
    message = AccountingMessage(
        rpn_id="rpn1",
        cycle_start_s=0.0,
        cycle_end_s=0.1,
        total_usage=PREDICTED,
        per_subscriber={"site1": RPNUsageReport(usage=PREDICTED, completed=1)},
    )
    accounting.apply_message(message)
    assert not accounting.account("site1").pending["rpn1"]
    assert accounting.pending_total() == ResourceVector.ZERO
    assert accounting.conservation_delta() == ResourceVector.ZERO


# -- conservation property ----------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["dispatch", "complete", "cancel", "forget"]),
        st.sampled_from(["rpn1", "rpn2", "rpn3"]),
        st.floats(min_value=0.001, max_value=0.1),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_conservation_holds_under_any_operation_mix(ops):
    """Charges are conserved no matter how dispatches, completions,
    hedge-cancellations, and node deaths interleave."""
    accounting = RDNAccounting()
    accounting.keep_usage_log = False
    accounting.register(Subscriber("site1", 100))
    in_flight = {"rpn1": [], "rpn2": [], "rpn3": []}
    for op, rpn, magnitude in ops:
        if op == "dispatch":
            predicted = ResourceVector(magnitude, magnitude / 2, magnitude * 1e4)
            accounting.on_dispatch("site1", rpn, predicted)
            in_flight[rpn].append(predicted)
        elif op == "complete" and in_flight[rpn]:
            in_flight[rpn].pop(0)
            usage = ResourceVector(magnitude, 0.0, magnitude * 1e3)
            accounting.apply_message(
                AccountingMessage(
                    rpn_id=rpn,
                    cycle_start_s=0.0,
                    cycle_end_s=0.1,
                    total_usage=usage,
                    per_subscriber={
                        "site1": RPNUsageReport(usage=usage, completed=1)
                    },
                )
            )
        elif op == "cancel" and in_flight[rpn]:
            predicted = in_flight[rpn].pop()
            accounting.on_cancel("site1", rpn, predicted)
        elif op == "forget":
            accounting.forget_rpn(rpn)
            in_flight[rpn] = []
        delta = accounting.conservation_delta()
        assert delta.cpu_s == pytest.approx(0.0, abs=1e-9)
        assert delta.disk_s == pytest.approx(0.0, abs=1e-9)
        assert delta.net_bytes == pytest.approx(0.0, abs=1e-3)
