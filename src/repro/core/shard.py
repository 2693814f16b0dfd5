"""Cross-shard credit redistribution: the hierarchy's top level.

The paper's RDN runs the credit-based WRR scheduler as a single instance
(§3.3-3.4).  The multi-worker proxy
(:class:`~repro.proxy.workers.WorkerSupervisor`) runs N of them, one
plain :class:`~repro.core.scheduler.RequestScheduler` per worker
process, and keeps the *global* per-subscriber GRPS guarantee with the
pieces here:

- :class:`ShardCreditReport` — one shard's per-cycle offer (credit its
  idle subscribers hoard) and backlog, built from
  :meth:`RequestScheduler.credit_report`;
- :class:`GlobalAllocator` — the paper's spare-capacity redistribution
  run *across shards* each accounting cycle: unused per-shard credits
  flow back and are re-granted in GRPS proportion — the same WRR
  invariant, one level up.  Credit is conserved: every rebalance's
  grants sum exactly to its reclaims (plus any carry reclaimed from a
  dead shard);
- :class:`CreditGrant` — the allocator's answer to one shard, applied
  with :meth:`RequestScheduler.apply_credit_grant`.

With one worker the supervisor never rebalances: cross-shard
redistribution only moves credit *between* shards, and the lone
scheduler's spare pass already implements the paper's single-RDN spare
pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.core.grps import ResourceVector


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
