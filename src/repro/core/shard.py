"""A sharded control plane: partitioned schedulers under a global allocator.

The paper's RDN runs the credit-based WRR scheduler as a single instance
(§3.3-3.4).  This module partitions that control plane so it can run as
N independent instances — simulation shards or proxy worker processes —
while keeping the *global* per-subscriber GRPS guarantee:

- :class:`ShardMap` — stable subscriber→shard hashing, so any component
  can compute a subscriber's home shard without coordination;
- :class:`GlobalAllocator` — the paper's spare-capacity redistribution
  run *across shards* each accounting cycle: unused per-shard credits
  flow back and are re-granted in GRPS proportion — the same WRR
  invariant, one level up.  Credit is conserved: every rebalance's
  grants sum exactly to its reclaims (plus any carry reclaimed from a
  dead shard);
- :class:`SchedulerShard` / :class:`ShardedScheduler` — one partition's
  full queue/accounting/scheduler stack, and the facade that runs K of
  them with the allocator in the loop.

With one shard the allocator is a no-op by construction: cross-shard
redistribution only moves credit *between* shards, and the in-shard
spare pass already implements the paper's single-RDN spare pool.  That
is what makes the ``workers=1`` path decision-identical to the legacy
single-instance scheduler (pinned by a fixed-seed test and the golden
digest).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.accounting import RDNAccounting
from repro.core.config import GageConfig
from repro.core.feedback import AccountingMessage
from repro.core.grps import ResourceVector
from repro.core.node_scheduler import NodeScheduler
from repro.core.queues import SubscriberQueues
from repro.core.scheduler import RequestScheduler, ScheduleDecision
from repro.core.subscriber import Subscriber

#: Invoked for every dispatched request as (request, rpn_id, subscriber,
#: predicted) — the dispatch-time prediction rides along so downstream
#: layers (hedging, retries) can refund it on cancellation.
DispatchFn = Callable[[object, str, str, ResourceVector], None]


class ShardMap:
    """Stable subscriber→shard assignment by cryptographic hash.

    The assignment depends only on the subscriber name and the shard
    count, never on registration order or process identity, so the RDN,
    the proxy supervisor, and every worker agree on it without a
    directory service.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards

    def shard_of(self, subscriber: str) -> int:
        """The home shard of one subscriber (0 .. num_shards-1)."""
        digest = hashlib.sha256(subscriber.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.num_shards

    def assignments(self, names: Iterable[str]) -> Dict[str, int]:
        """name → shard for every given subscriber."""
        return {name: self.shard_of(name) for name in names}

    def partition(self, names: Iterable[str]) -> List[List[str]]:
        """The given names grouped by shard, input order preserved."""
        groups: List[List[str]] = [[] for _ in range(self.num_shards)]
        for name in names:
            groups[self.shard_of(name)].append(name)
        return groups


@dataclass(frozen=True)
class ShardCreditReport:
    """One shard's per-accounting-cycle credit report.

    ``unused`` is the credit the shard offers back to the global pool —
    positive balance its idle subscribers are hoarding beyond one
    cycle's refill.  ``backlog`` is the pending-request depth per
    subscriber (only backlogged entries matter to the allocator).
    """

    shard_id: int
    unused: Mapping[str, ResourceVector] = field(default_factory=dict)
    backlog: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CreditGrant:
    """The allocator's answer to one shard for one accounting cycle.

    ``reclaims`` debits exactly what the shard offered as unused;
    ``grants`` credits its share of the redistributed pool.  Applying
    both (grant minus reclaim per subscriber) is one atomic balance
    adjustment.
    """

    grants: Mapping[str, ResourceVector] = field(default_factory=dict)
    reclaims: Mapping[str, ResourceVector] = field(default_factory=dict)

    def net(self) -> Dict[str, ResourceVector]:
        """Per-subscriber grant minus reclaim."""
        out: Dict[str, ResourceVector] = {}
        for name, vec in self.grants.items():
            out[name] = vec
        for name, vec in self.reclaims.items():
            out[name] = out.get(name, ResourceVector.ZERO) - vec
        return out


def _is_zero(vec: ResourceVector) -> bool:
    return vec.cpu_s == 0.0 and vec.disk_s == 0.0 and vec.net_bytes == 0.0


class GlobalAllocator:
    """Cross-shard spare-capacity redistribution (the hierarchy's top level).

    Each accounting cycle every shard reports the credit its idle
    subscribers are hoarding (``unused``) and its per-subscriber
    backlog.  The allocator reclaims the offered credit and re-grants
    it in two passes:

    1. **same-subscriber rebalancing** — a subscriber's unused credit on
       idle shards moves to the shards where that subscriber is
       backlogged (backlog-weighted).  This preserves each subscriber's
       *global* credit exactly while chasing the load — the fix for
       connection-level skew across ``SO_REUSEPORT`` workers;
    2. **cross-subscriber spare** — credit of subscribers idle on every
       shard becomes global spare, re-granted to backlogged
       (shard, subscriber) pairs weighted by the subscriber's GRPS
       reservation: "whatever spare resource remains ... is then
       distributed in a weighted fashion ... according to their resource
       reservations" (§3.4), one level up.

    If nothing is backlogged anywhere, each shard's offer is granted
    straight back (a net no-op), so credit is never destroyed.  The
    conservation invariant — Σ grants == Σ reclaims + carry consumed —
    holds for every rebalance and is pinned by a test.
    """

    def __init__(self, reservations: Mapping[str, float]) -> None:
        self.reservations: Dict[str, float] = dict(reservations)
        #: Credit reclaimed from dead shards, merged into the next
        #: rebalance's pool (the supervisor's worker-restart path).
        self._carry: Dict[str, ResourceVector] = {}
        self.rebalances = 0

    # -- subscriber churn ----------------------------------------------------

    def set_reservation(self, name: str, reservation_grps: float) -> None:
        """Admit (or update) one subscriber's spare-share weight."""
        self.reservations[name] = reservation_grps

    def remove_reservation(self, name: str) -> None:
        """Drop a departed subscriber from the spare-share weighting.

        Any carry still held for the name keeps riding the next
        rebalance — that credit was reclaimed from a live balance and is
        never destroyed; it lands via pass-1 if the name is ever
        backlogged again, or dissolves into spare otherwise.
        """
        self.reservations.pop(name, None)

    # -- dead-shard path ----------------------------------------------------

    def reclaim(self, balances: Mapping[str, ResourceVector]) -> None:
        """Fold a dead shard's outstanding credit back into the pool.

        Called by the supervisor when a worker is declared dead: the
        grants that worker was holding must not evaporate, so they ride
        the next rebalance to the surviving (or restarted) shards.
        """
        for name, vec in balances.items():
            positive = vec.clamped_min(0.0)
            if _is_zero(positive):
                continue
            self._carry[name] = self._carry.get(name, ResourceVector.ZERO) + positive

    def carry_total(self) -> ResourceVector:
        """Credit currently waiting to re-enter the pool."""
        total = ResourceVector.ZERO
        for vec in self._carry.values():
            total = total + vec
        return total

    # -- the per-accounting-cycle rebalance ---------------------------------

    def rebalance(
        self, reports: Iterable[ShardCreditReport]
    ) -> Dict[int, CreditGrant]:
        """One cross-shard redistribution round; returns grants per shard."""
        self.rebalances += 1
        ordered = sorted(reports, key=lambda r: r.shard_id)
        reclaims: Dict[int, Dict[str, ResourceVector]] = {}
        grants: Dict[int, Dict[str, ResourceVector]] = {}
        #: name → summed credit offered back this round (reports only).
        pool: Dict[str, ResourceVector] = {}
        #: name → [(shard_id, backlog), ...] over backlogged shards.
        demand: Dict[str, List[Tuple[int, int]]] = {}
        for report in ordered:
            reclaims[report.shard_id] = {}
            grants[report.shard_id] = {}
            for name, vec in sorted(report.unused.items()):
                offered = vec.clamped_min(0.0)
                if _is_zero(offered):
                    continue
                reclaims[report.shard_id][name] = offered
                pool[name] = pool.get(name, ResourceVector.ZERO) + offered
            for name, depth in sorted(report.backlog.items()):
                if depth > 0:
                    demand.setdefault(name, []).append((report.shard_id, depth))

        any_backlog = bool(demand)
        if not any_backlog:
            # Nobody anywhere can spend redistributed credit: hand every
            # shard's offer straight back (net no-op) and keep the carry
            # for a cycle when someone is backlogged.
            for shard_id, offered_map in reclaims.items():
                grants[shard_id] = dict(offered_map)
            return {
                shard_id: CreditGrant(grants=grants[shard_id], reclaims=reclaims[shard_id])
                for shard_id in grants
            }

        # The carry from dead shards re-enters the pool now that there is
        # at least one backlogged recipient.
        for name, vec in sorted(self._carry.items()):
            if _is_zero(vec):
                continue
            pool[name] = pool.get(name, ResourceVector.ZERO) + vec
        self._carry.clear()

        # Pass 1: same-subscriber rebalancing, backlog-weighted.
        spare = ResourceVector.ZERO
        for name in sorted(pool):
            amount = pool[name]
            recipients = demand.get(name)
            if not recipients:
                spare = spare + amount
                continue
            total_depth = float(sum(depth for _, depth in recipients))
            for shard_id, depth in recipients:
                share = amount.scaled(depth / total_depth)
                shard_grants = grants.setdefault(shard_id, {})
                shard_grants[name] = (
                    shard_grants.get(name, ResourceVector.ZERO) + share
                )

        # Pass 2: cross-subscriber spare in GRPS proportion over the
        # backlogged (shard, subscriber) pairs.
        if not _is_zero(spare):
            pairs: List[Tuple[int, str, float]] = []
            for name in sorted(demand):
                weight = self.reservations.get(name, 0.0)
                total_depth = float(sum(depth for _, depth in demand[name]))
                for shard_id, depth in demand[name]:
                    pairs.append((shard_id, name, weight * depth / total_depth))
            total_weight = sum(weight for _, _, weight in pairs)
            if total_weight <= 0.0:
                # All-zero reservations: equal shares, mirroring the
                # in-shard degenerate case.
                pairs = [(sid, name, 1.0) for sid, name, _ in pairs]
                total_weight = float(len(pairs))
            for shard_id, name, weight in pairs:
                share = spare.scaled(weight / total_weight)
                shard_grants = grants.setdefault(shard_id, {})
                shard_grants[name] = (
                    shard_grants.get(name, ResourceVector.ZERO) + share
                )

        return {
            shard_id: CreditGrant(
                grants=grants.get(shard_id, {}), reclaims=reclaims.get(shard_id, {})
            )
            for shard_id in grants
        }


class SchedulerShard:
    """One partition's full control-plane stack.

    Owns the :class:`SubscriberQueues`, :class:`RDNAccounting`, and
    :class:`RequestScheduler` for one subset of the subscribers, plus
    its (capacity-sliced) :class:`NodeScheduler` view of the cluster.
    """

    def __init__(
        self,
        shard_id: int,
        subscribers: List[Subscriber],
        config: GageConfig,
        node_scheduler: NodeScheduler,
        dispatch_fn: DispatchFn,
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        # One SubscriberTable per shard spans its queues and accounting,
        # so both resolve a name to the same dense interned id.
        self.queues = SubscriberQueues()
        self.accounting = RDNAccounting(table=self.queues.table)
        self.node_scheduler = node_scheduler
        self.scheduler = RequestScheduler(
            config,
            self.queues,
            self.accounting,
            node_scheduler,
            dispatch_fn=dispatch_fn,
        )
        for subscriber in subscribers:
            self.queues.register(subscriber)
            self.accounting.register(subscriber)

    # -- subscriber churn ----------------------------------------------------

    def add_subscriber(self, subscriber: Subscriber) -> None:
        """Admit one subscriber into this shard mid-run (churn)."""
        self.queues.register(subscriber)
        self.accounting.register(subscriber)

    def remove_subscriber(self, name: str) -> bool:
        """Remove one subscriber from this shard mid-run (churn).

        Pending requests are dropped; outstanding predictions fold into
        the accounting's ``total_forgotten`` so the conservation
        invariant (Σ charged == Σ backed out + refunded + forgotten +
        pending) survives the departure.
        """
        if name not in self.queues:
            return False
        self.accounting.unregister(name)
        self.queues.unregister(name)
        return True

    def offer(self, name: str, request: object) -> bool:
        """Enqueue one classified request (False = dropped/unknown)."""
        queue = self.queues.get(name)
        if queue is None:
            return False
        return queue.offer(request)

    def run_cycle(self) -> List[ScheduleDecision]:
        """One WRR scheduling cycle over this shard's queues."""
        return self.scheduler.run_cycle()

    def apply_feedback(self, message: AccountingMessage) -> None:
        """Apply one accounting message (already filtered to this shard)."""
        self.scheduler.apply_feedback(message)

    # -- hierarchical-credit hooks ------------------------------------------

    def credit_report(self) -> ShardCreditReport:
        """This shard's offer to the global allocator."""
        unused, backlog = self.scheduler.credit_report()
        return ShardCreditReport(self.shard_id, unused=unused, backlog=backlog)

    def apply_grant(self, grant: CreditGrant) -> None:
        """Apply one allocator answer as atomic balance adjustments."""
        self.scheduler.apply_credit_grant(grant.net())


class ShardedScheduler:
    """K partitioned control-plane instances behind one facade.

    Subscribers are hash-partitioned by :class:`ShardMap`; each shard's
    :class:`NodeScheduler` sees every node at ``1/K`` of its capacity so
    the shards' combined view equals the whole cluster.  Each accounting
    cycle, :meth:`run_accounting_cycle` routes the shards' credit
    reports through the :class:`GlobalAllocator` and applies the grants.
    """

    def __init__(
        self,
        subscribers: List[Subscriber],
        node_capacities: Mapping[str, ResourceVector],
        config: Optional[GageConfig] = None,
        num_shards: int = 1,
        dispatch_fn: Optional[DispatchFn] = None,
    ) -> None:
        self.config = config if config is not None else GageConfig()
        self.shard_map = ShardMap(num_shards)
        self.allocator = GlobalAllocator(
            {subscriber.name: subscriber.reservation_grps for subscriber in subscribers}
        )
        self._dispatch_fn: DispatchFn = dispatch_fn if dispatch_fn is not None else (
            lambda request, rpn_id, name, predicted: None
        )
        by_name = {subscriber.name: subscriber for subscriber in subscribers}
        groups = self.shard_map.partition(list(by_name))
        self.shards: List[SchedulerShard] = []
        fraction = 1.0 / num_shards
        window_s = self.config.dispatch_window_s
        if window_s is None:  # GageConfig post-init always sets it
            window_s = 0.25
        for shard_id in range(num_shards):
            node_scheduler = NodeScheduler(
                policy=self.config.node_policy, window_s=window_s
            )
            for rpn_id, capacity in node_capacities.items():
                node_scheduler.add_node(rpn_id, capacity.scaled(fraction))
            self.shards.append(
                SchedulerShard(
                    shard_id,
                    [by_name[name] for name in groups[shard_id]],
                    self.config,
                    node_scheduler,
                    self._dispatch_fn,
                )
            )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, name: str) -> SchedulerShard:
        """The shard that owns one subscriber."""
        return self.shards[self.shard_map.shard_of(name)]

    # -- subscriber churn ----------------------------------------------------

    def add_subscriber(self, subscriber: Subscriber) -> SchedulerShard:
        """Admit one subscriber mid-run; returns its home shard."""
        shard = self.shard_for(subscriber.name)
        shard.add_subscriber(subscriber)
        self.allocator.set_reservation(
            subscriber.name, subscriber.reservation_grps
        )
        return shard

    def remove_subscriber(self, name: str) -> bool:
        """Remove one subscriber mid-run (requests dropped, id reused)."""
        removed = self.shard_for(name).remove_subscriber(name)
        if removed:
            self.allocator.remove_reservation(name)
        return removed

    def offer(self, name: str, request: object) -> bool:
        """Route one request to its home shard's queue."""
        return self.shard_for(name).offer(name, request)

    def run_cycle(self) -> List[ScheduleDecision]:
        """One scheduling cycle across every shard, in shard order."""
        decisions: List[ScheduleDecision] = []
        for shard in self.shards:
            decisions.extend(shard.run_cycle())
        return decisions

    def apply_feedback(self, message: AccountingMessage) -> None:
        """Split one RPN accounting message across the owning shards."""
        if self.num_shards == 1:
            self.shards[0].apply_feedback(message)
            return
        per_shard: Dict[int, Dict[str, object]] = {}
        for name, report in message.per_subscriber.items():
            per_shard.setdefault(self.shard_map.shard_of(name), {})[name] = report
        for shard_id, reports in per_shard.items():
            self.shards[shard_id].apply_feedback(
                AccountingMessage(
                    rpn_id=message.rpn_id,
                    cycle_start_s=message.cycle_start_s,
                    cycle_end_s=message.cycle_end_s,
                    total_usage=message.total_usage,
                    per_subscriber=dict(reports),  # type: ignore[arg-type]
                )
            )

    def run_accounting_cycle(self) -> Dict[int, CreditGrant]:
        """One cross-shard credit redistribution round.

        A no-op with one shard: there is nothing to move *between*
        shards, and the in-shard spare pass already implements the
        paper's single-RDN spare pool — which is exactly what keeps the
        1-shard path decision-identical to the legacy scheduler.
        """
        if self.num_shards == 1:
            return {}
        reports = [shard.credit_report() for shard in self.shards]
        answers = self.allocator.rebalance(reports)
        for shard in self.shards:
            grant = answers.get(shard.shard_id)
            if grant is not None:
                shard.apply_grant(grant)
        return answers
