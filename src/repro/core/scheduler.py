"""The "which request" decision: credit-based weighted round-robin (§3.4).

Every scheduling cycle (10 ms) the scheduler visits each subscriber queue
in a cyclic fashion:

1. **Reserved pass** — the queue's balance gains one cycle's worth of its
   reservation; requests are dispatched (predicted usage deducted from the
   balance, a least-loaded RPN selected) until the balance would go
   negative in any resource dimension, the queue empties, or no RPN has
   headroom.
2. **Spare pass** — "whatever spare resource remains after the first
   round of scheduling is then distributed in a weighted fashion among
   those queues that are still not empty according to their resource
   reservations" — the policy Table 2 demonstrates ("higher reservation
   gets larger share of spare resource").

Scale notes: the per-cycle walk is **O(active)**, not O(registered).
A subscriber whose queue is empty at the end of its visit *parks*: it
leaves the walk at once and its account remembers ``(cycle of last
refill, credit, cap)``.  Whatever touches it next — an
``offer``/``requeue`` (the queues' activity set), or any non-refill
balance or estimator mutation: feedback, spare credit, cancellation
refunds, node death, an external by-name account or estimator access —
first replays the refills it missed, with the float operations a visit
would have performed and in the same order
(:meth:`~repro.core.accounting.RDNAccounting._replay`), and puts it back
in the walk.  Refill-only cycles do nothing else to an idle subscriber
(no dispatch; a balance gauge that only rises, so its last value and
extremes are those of the replayed run), hence every balance, dispatch
and gauge reading is bit-for-bit what visiting every subscriber every
cycle produces (the golden digest and ``tests/core/test_scheduler_lazy``
pin this).  The hoard cap depends on the estimator, so every estimator
write is a wake: the missed refills are replayed against the cap
recorded at parking, and the cycles after the write are walked again
under the new one.  :meth:`RequestScheduler.sync` brings parked accounts
and their gauges up to date for readers, waking nobody.

Parking needs queue ids and account ids to agree, so the queues and
the accounting must share one
:class:`~repro.core.subscriber.SubscriberTable`; the constructor refuses
anything else.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.core.accounting import RDNAccounting, SubscriberAccount
from repro.core.config import (
    SPARE_NONE,
    GageConfig,
)
from repro.core.credit import CreditLedger
from repro.core.estimator import UsageEstimator
from repro.core.grps import ResourceVector
from repro.core.node_scheduler import NodeScheduler
from repro.core.placement import PlacementEngine
from repro.core.queues import RequestQueue, SubscriberQueues
from repro.telemetry.registry import get_registry

#: Invoked for every dispatched request as (request, rpn_id, subscriber,
#: predicted) — the exact prediction charged at dispatch rides along so
#: downstream layers (hedging, retries) can refund it on cancellation.
DispatchFn = Callable[[object, str, str, ResourceVector], None]

#: Bucket bounds for the prediction-error histogram, in percent.
PREDICTION_ERROR_BUCKETS_PCT = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0]


#: C-level constructor for the per-dispatch :class:`ScheduleDecision`.
_new = tuple.__new__


class ScheduleDecision(NamedTuple):
    """One dispatch made during a scheduling cycle.

    Immutable and built in C on every dispatch; being a tuple, it also
    compares equal to the plain 4-tuple of its fields.
    """

    subscriber: str
    rpn_id: str
    predicted: ResourceVector
    spare: bool  # True if dispatched on spare (not reserved) credit


class RequestScheduler:
    """Gage's request scheduler, run once per scheduling cycle."""

    def __init__(
        self,
        config: GageConfig,
        queues: SubscriberQueues,
        accounting: RDNAccounting,
        node_scheduler: NodeScheduler,
        dispatch_fn: DispatchFn,
        placement: Optional[PlacementEngine] = None,
    ) -> None:
        if queues.table is not accounting.table:
            raise ValueError("queues and accounting must share one SubscriberTable")
        self.config = config
        self.queues = queues
        self.accounting = accounting
        self.node_scheduler = node_scheduler
        self.dispatch_fn = dispatch_fn
        #: Credit vectors, the reservation sum behind the spare pool, and
        #: the deficit-round-robin rollover.
        self.ledger = CreditLedger(config)
        #: Optional placement layer: when present, each subscriber may
        #: only be dispatched to the RPNs its embedding allows.
        self.placement = placement
        self._estimators: Dict[str, UsageEstimator] = {}
        #: Ids the next cycle walks; parked subscribers are absent.
        self._active: Set[int] = set(queues.sorted_ids())
        accounting.on_replay = self._note_balance
        for queue in queues:
            self.ledger.add_reservation(queue.subscriber)
        queues.on_register.append(self._on_queue_registered)
        queues.on_unregister.append(self._on_queue_unregistered)
        self.cycles = 0
        self.reserved_dispatches = 0
        self.spare_dispatches = 0
        registry = get_registry()
        self._cycle_counter = registry.counter("repro.core.wrr_cycles")
        self._reserved_counter = registry.counter(
            "repro.core.dispatches", credit="reserved"
        )
        self._spare_counter = registry.counter("repro.core.dispatches", credit="spare")
        self._spare_round_counter = registry.counter("repro.core.spare_rounds")
        #: Per-node spare GRPS absorbed, lazily created per rpn_id —
        #: makes heterogeneous spare distribution (fast nodes absorb
        #: proportionally more) observable in snapshots.
        self._spare_share_counters: Dict[str, object] = {}
        self._prediction_error = registry.histogram(
            "repro.core.prediction_error_pct", bounds=PREDICTION_ERROR_BUCKETS_PCT
        )
        self._balance_gauges: Dict[str, object] = {}

    # -- registration hooks (subscriber churn) -------------------------------

    def _on_queue_registered(self, queue: RequestQueue) -> None:
        self.ledger.add_reservation(queue.subscriber)
        self._active.add(queue.sid)

    def _on_queue_unregistered(self, queue: RequestQueue) -> None:
        name = queue.subscriber.name
        self.ledger.remove_reservation(name)
        self.ledger.forget_credit(queue.sid)
        self._active.discard(queue.sid)
        self._estimators.pop(name, None)
        self._balance_gauges.pop(name, None)

    def estimator(self, name: str) -> UsageEstimator:
        """The usage estimator for one subscriber's queue.

        External access wakes the subscriber: the caller may mutate the
        estimator, which changes the refill cap a parked subscriber's
        missed refills are replayed against.
        """
        queue = self.queues.get(name)
        if queue is not None:
            self._wake(queue.sid)
        return self._estimator(name)

    def _wake(self, sid: int) -> None:
        """Replay a parked subscriber's missed refills; walk it next cycle."""
        self.accounting.wake(sid)
        self._active.add(sid)

    def _estimator(self, name: str) -> UsageEstimator:
        estimator = self._estimators.get(name)
        if estimator is None:
            estimator = UsageEstimator(
                policy=self.config.estimator_policy,
                initial=self.config.generic_request,
            )
            self._estimators[name] = estimator
        return estimator

    def active_count(self) -> int:
        """Subscribers currently in the per-cycle scheduling walk."""
        return len(self._active)

    # -- one scheduling cycle -------------------------------------------------

    def run_cycle(self) -> List[ScheduleDecision]:
        """Execute one 10-ms scheduling cycle; returns the dispatches made."""
        self.cycles += 1
        self._cycle_counter.inc()
        decisions: List[ScheduleDecision] = []
        queues = self.queues
        active = self._active

        # Wake subscribers with activity since the last cycle.  Their
        # missed refills run through the previous cycle; this cycle's
        # own follows in the walk.
        accounting = self.accounting
        activity = queues.drain_activity()
        for sid in activity:
            accounting.wake(sid)
        active.update(activity)
        active.update(accounting.drain_dirty())
        accounting.cycle = self.cycles

        # Pass 1: reserved credit, weighted round-robin over the active
        # queues.  The visit order rotates each cycle over the *full*
        # registered order ("visits each subscriber's queue in a cyclic
        # fashion", §3.4), so no queue systematically claims node
        # headroom first; the active subset is visited in that same
        # rotated cyclic order.
        order = queues.sorted_ids()
        if order and active:
            pivot = order[self.cycles % len(order)]
            ready = sorted(active)
            split = bisect.bisect_left(ready, pivot)
            accounting.in_walk = True
            try:
                for sid in ready[split:] + ready[:split]:
                    queue = queues.get_by_id(sid)
                    if queue is None:
                        active.discard(sid)
                        continue
                    decisions.extend(self._visit(queue))
            finally:
                accounting.in_walk = False

        # Pass 2: spare resource for still-backlogged queues.
        if self.config.spare_policy != SPARE_NONE:
            decisions.extend(self._spare_pass())

        return decisions

    def _visit(self, queue: RequestQueue) -> List[ScheduleDecision]:
        """Refill one subscriber, drain what its balance covers, park if idle."""
        sid = queue.sid
        subscriber = queue.subscriber
        name = subscriber.name
        credit, capped = self.ledger.cycle_credit(sid, subscriber)
        # The cap bounds idle-time credit hoarding, but must always
        # admit at least one predicted request or a subscriber whose
        # requests are larger than CREDIT_CAP_CYCLES' worth of credit
        # (heavy-tailed workloads) could never dispatch again.
        estimator = self._estimator(name)
        predicted = estimator.predict()
        cap = self.ledger.cycle_cap(sid, capped, predicted)
        account = self.accounting.account_by_id(sid)
        if account is None:
            raise KeyError(name)
        self.accounting.refill_account(account, credit, cap)
        decisions = self._drain_reserved(queue, account, estimator)
        self._note_balance(account)
        if not queue.backlogged:
            # Nothing but refills can happen to it until something
            # touches it, and whatever does replays them first.
            self._active.discard(sid)
            account.parked = (self.cycles, credit, cap)
        return decisions

    def _drain_reserved(
        self,
        queue: RequestQueue,
        account: SubscriberAccount,
        estimator: UsageEstimator,
    ) -> List[ScheduleDecision]:
        decisions: List[ScheduleDecision] = []
        name = queue.subscriber.name
        allowed = (
            None if self.placement is None else self.placement.allowed_nodes(name)
        )
        neg = -ResourceVector.EPSILON
        while queue.backlogged:
            predicted = estimator.predict()
            # (balance - predicted).any_negative without the intermediate
            # vector: same subtractions, same epsilon, no allocation.
            balance = account.balance
            if (
                balance[0] - predicted[0] < neg
                or balance[1] - predicted[1] < neg
                or balance[2] - predicted[2] < neg
            ):
                break
            rpn_id = self.node_scheduler.pick(
                predicted, request=queue.peek(), allowed=allowed
            )
            if rpn_id is None:
                break  # cluster saturated; leave the request queued
            request = queue.take()
            self.accounting.on_dispatch(name, rpn_id, predicted)
            self.node_scheduler.on_dispatch(rpn_id, predicted)
            self.dispatch_fn(request, rpn_id, name, predicted)
            self.reserved_dispatches += 1
            self._reserved_counter.inc()
            decisions.append(_new(ScheduleDecision, (name, rpn_id, predicted, False)))
        return decisions

    def _note_balance(self, account: SubscriberAccount) -> None:
        """Export one subscriber's post-cycle credit balance, in GRPS."""
        name = account.subscriber.name
        gauge = self._balance_gauges.get(name)
        if gauge is None:
            gauge = get_registry().gauge(
                "repro.core.credit_balance_grps", subscriber=name
            )
            self._balance_gauges[name] = gauge
        gauge.set(account.balance.in_generic_requests(self.config.generic_request))

    # -- spare resource allocation ---------------------------------------------

    def _spare_pool(self) -> ResourceVector:
        """Capacity this cycle beyond the sum of all reservations.

        O(1): the ledger's reservation sum is maintained incrementally
        through the queue-registration hooks.
        """
        return self.ledger.spare_pool_tracked(
            self.node_scheduler.total_capacity_per_s()
        )

    #: Bound on spare-pass redistribution rounds per cycle (the loop
    #: terminates long before this in practice).
    MAX_SPARE_ROUNDS = 10

    def _spare_pass(self) -> List[ScheduleDecision]:
        """Water-filling spare allocation.

        Each round splits the remaining pool among *currently* backlogged
        queues in proportion to their reservations; a queue that empties
        without using its share leaves the remainder to be redistributed
        in the next round.  This is what makes Table 1 come out: site1
        and site2 take only slivers of spare, and site3 absorbs the rest.
        """
        decisions: List[ScheduleDecision] = []
        pool = self._spare_pool()
        if pool == ResourceVector.ZERO:
            return decisions
        first_round_names = set()
        for _round in range(self.MAX_SPARE_ROUNDS):
            backlogged = self.queues.backlogged()
            if not backlogged:
                break
            self._spare_round_counter.inc()
            weights = self.ledger.spare_weights(backlogged)
            consumed_total = ResourceVector.ZERO
            for queue in backlogged:
                name = queue.subscriber.name
                share = pool.scaled(weights.get(name, 0.0))
                estimator = self._estimator(name)
                if _round == 0:
                    # Roll in the unused share from previous cycles
                    # (deficit round-robin): without it each queue
                    # forfeits its fractional share every cycle (up to
                    # one request per queue per cycle — a large bias at
                    # 10 ms cycles).
                    first_round_names.add(name)
                    share = self.ledger.roll_in_deficit(
                        name, share, estimator.predict()
                    )
                allowed = (
                    None
                    if self.placement is None
                    else self.placement.allowed_nodes(name)
                )
                neg = -ResourceVector.EPSILON
                while queue.backlogged:
                    predicted = estimator.predict()
                    if (
                        share[0] - predicted[0] < neg
                        or share[1] - predicted[1] < neg
                        or share[2] - predicted[2] < neg
                    ):
                        break
                    rpn_id = self.node_scheduler.pick(
                        predicted, request=queue.peek(), allowed=allowed
                    )
                    if rpn_id is None:
                        if allowed is not None:
                            # Only this subscriber's allowed nodes are
                            # saturated (or it is unplaced); others may
                            # still have headroom.
                            break
                        return decisions  # cluster saturated for everyone
                    request = queue.take()
                    share = share - predicted
                    consumed_total = consumed_total + predicted
                    # A spare dispatch must not eat into the reserved
                    # balance: grant uncapped credit equal to the
                    # prediction, so the dispatch's net balance effect is
                    # zero and the spare budget lives in the share alone.
                    self.accounting.credit(name, predicted)
                    self.accounting.on_dispatch(name, rpn_id, predicted)
                    self.node_scheduler.on_dispatch(rpn_id, predicted)
                    self.dispatch_fn(request, rpn_id, name, predicted)
                    self.spare_dispatches += 1
                    self._spare_counter.inc()
                    share_counter = self._spare_share_counters.get(rpn_id)
                    if share_counter is None:
                        share_counter = get_registry().counter(
                            "repro.scheduler.spare_share", node=rpn_id
                        )
                        self._spare_share_counters[rpn_id] = share_counter
                    share_counter.inc(
                        predicted.in_generic_requests(self.config.generic_request)
                    )
                    decisions.append(
                        _new(ScheduleDecision, (name, rpn_id, predicted, True))
                    )
                if _round == 0:
                    # Whatever the queue could not spend this round rolls
                    # over (the queue emptied => share stays for bursts,
                    # still capped on the way back in next cycle).
                    self.ledger.store_deficit(name, share)
            if consumed_total == ResourceVector.ZERO:
                break
            pool = (pool - consumed_total).clamped_min(0.0)
            if pool == ResourceVector.ZERO:
                break
        self.ledger.drop_stale_deficits(first_round_names)
        return decisions

    # -- feedback path ------------------------------------------------------------

    def apply_feedback(self, message) -> None:
        """Apply an accounting message: balances, estimators, node loads."""
        generic = self.config.generic_request
        for name, report in message.per_subscriber.items():
            queue = self.queues.get(name)
            if queue is not None:
                # Feedback mutates the estimator (refill cap) and the
                # balance: wake the subscriber for the next cycle.
                self._wake(queue.sid)
                estimator = self._estimator(name)
                if report.completed > 0:
                    # Prediction error: how far the dispatch-time estimate
                    # was from the measured per-request usage this cycle.
                    predicted_g = estimator.predict().in_generic_requests(generic)
                    measured_g = report.per_request().in_generic_requests(generic)
                    if predicted_g > 0:
                        self._prediction_error.observe(
                            100.0 * abs(measured_g - predicted_g) / predicted_g
                        )
                estimator.observe_cycle(report.usage, report.completed)
        backed_out = self.accounting.apply_message(message)
        total = ResourceVector.ZERO
        for vec in backed_out.values():
            total = total + vec
        self.node_scheduler.on_feedback(message.rpn_id, total)

    # -- readers ------------------------------------------------------------------

    def sync(self) -> None:
        """Bring every parked balance and its gauge to the current cycle.

        One scan of the accounts, replay work only for the parked ones;
        wakes nobody.  The ``credit_balance_grps`` gauge of a parked
        subscriber is otherwise as of its last touch.
        """
        self.accounting.sync()

    # -- hierarchical-credit hooks ------------------------------------------------

    def credit_report(self) -> Tuple[Dict[str, ResourceVector], Dict[str, int]]:
        """(unused credit, backlog depth) per subscriber, for a global allocator.

        An idle subscriber (no backlog) offers the positive balance it
        hoards beyond one cycle's refill — the next refill keeps it
        serving an arriving burst until the following grant round; a
        backlogged one offers nothing and reports its queue depth.
        Read-only: parked subscribers are brought up to date, none woken.
        """
        self.sync()
        unused: Dict[str, ResourceVector] = {}
        backlog: Dict[str, int] = {}
        for queue in self.queues:
            name = queue.subscriber.name
            depth = len(queue)
            if depth > 0:
                backlog[name] = depth
                continue
            account = self.accounting.account_by_id(queue.sid)
            if account is None:
                raise KeyError(name)
            credit, _capped = self.ledger.cycle_credit(queue.sid, queue.subscriber)
            offer = (account.balance - credit).clamped_min(0.0)
            if offer != ResourceVector.ZERO:
                unused[name] = offer
        return unused, backlog

    def apply_credit_grant(self, net: Mapping[str, ResourceVector]) -> None:
        """Apply an allocator's per-subscriber (grant minus reclaim) deltas."""
        for name, delta in net.items():
            if self.queues.get(name) is not None and delta != ResourceVector.ZERO:
                self.accounting.credit(name, delta)
