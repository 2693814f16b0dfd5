"""Hedged requests: clone the straggler, keep the first answer.

This is a tail-latency extension *beyond the paper*: Gage's feedback
loop (§3.5) bounds mean deviation per accounting interval, but one slow
or hung RPN still dominates p99/p999.  The hedging layer clones a
request that has not completed within a hedge delay onto a second RPN,
takes the first completion, cancels the loser mid-service, and refunds
the loser's predicted charge so credit conservation holds exactly:

    Σ charges == Σ completion back-outs + Σ cancellation refunds
                 + Σ node-death forgets + Σ still-pending predictions

The manager is the one owner of every hedging decision in both stacks —
when to clone, where (through a hook), the clone's charge and the loser's
refund, the latency histogram and the ``repro.core.hedge.*`` counters.
The simulated RDN and the asyncio proxy each supply only a clock and
their transport verbs (:class:`HedgeHooks`).  It is only constructed when
``GageConfig.hedge_policy`` is not ``"off"``, so paper-fidelity runs (and
the golden digest) are untouched.

Delay policies:

``"fixed"``
    Clone after ``hedge_delay_s``.
``"p95"``
    Clone after the observed p95 of winner dispatch→completion
    latencies (own histogram, fed only by resolved requests), falling
    back to ``hedge_delay_s`` until enough samples accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.core.accounting import RDNAccounting
from repro.core.config import HEDGE_P95, GageConfig
from repro.core.node_scheduler import NodeScheduler
from repro.resources import ResourceVector
from repro.telemetry.metrics import Histogram
from repro.telemetry.registry import get_registry

__all__ = ["HedgeHooks", "HedgeManager", "ServiceHandle"]

#: Observations the adaptive policy needs before trusting its p95.
_MIN_LATENCY_SAMPLES = 10


class ServiceHandle:
    """Cancellation token threaded through one in-service request.

    The servicing generator *arms* the handle with an abort callback
    around each resource wait (CPU slice, disk I/O) and *disarms* it
    after the wait returns; :meth:`cancel` flips the cancelled flag and
    fires whatever abort is armed at that instant.  A handle whose
    request already finished refuses to cancel.
    """

    __slots__ = ("cancelled", "finished", "_abort")

    def __init__(self) -> None:
        self.cancelled = False
        self.finished = False
        self._abort: Optional[Callable[[], bool]] = None

    def arm(self, abort: Callable[[], bool]) -> None:
        """Install the abort for the resource wait about to start."""
        self._abort = abort

    def disarm(self) -> bool:
        """Clear the armed abort; returns whether cancellation hit."""
        self._abort = None
        return self.cancelled

    def cancel(self) -> bool:
        """Request cancellation; returns ``False`` if too late."""
        if self.finished or self.cancelled:
            return False
        self.cancelled = True
        abort = self._abort
        if abort is not None:
            self._abort = None
            abort()
        return True


@dataclass
class HedgeHooks:
    """The transport verbs a stack lends the hedge manager.

    Injected rather than imported so the manager stays decoupled from
    both the simulated RDN and the proxy (and trivially testable with
    plain lambdas).
    """

    #: ``(request, predicted, exclude) -> node`` — pick a clone target,
    #: or ``None`` when no other node can take one.
    pick_clone: Callable[[object, ResourceVector, FrozenSet[str]], Optional[str]]
    #: ``(request, node, subscriber)`` — start the clone on ``node``.
    dispatch_clone: Callable[[object, str, str], None]
    #: ``(request, node, subscriber) -> cancelled`` — abort the copy on
    #: ``node`` and stop tracking it; ``False`` when it already finished.
    cancel: Callable[[object, str, str], bool]


class _HedgeEntry:
    __slots__ = ("item", "subscriber", "primary", "copies", "dispatched_at", "resolved")

    def __init__(
        self,
        item: object,
        subscriber: str,
        primary: str,
        predicted: ResourceVector,
        dispatched_at: float,
    ) -> None:
        self.item = item
        self.subscriber = subscriber
        self.primary = primary
        #: Live copies: rpn_id -> the prediction charged for it.
        self.copies: Dict[str, ResourceVector] = {primary: predicted}
        self.dispatched_at = dispatched_at
        self.resolved = False


class HedgeManager:
    """Tracks hedgeable requests and drives clone/charge/cancel/refund.

    ``now()`` reads the stack's clock and ``call_later(delay, fn, arg)``
    schedules on it; a clone is charged to ``accounting`` and
    ``node_scheduler`` exactly like a primary dispatch, and a cancelled
    loser is refunded from both.
    """

    def __init__(
        self,
        now: Callable[[], float],
        call_later: Callable[[float, Callable[[Any], None], Any], object],
        config: GageConfig,
        hooks: HedgeHooks,
        accounting: RDNAccounting,
        node_scheduler: NodeScheduler,
    ) -> None:
        self.now = now
        self.call_later = call_later
        self.config = config
        self.hooks = hooks
        self.accounting = accounting
        self.node_scheduler = node_scheduler
        self._entries: Dict[int, _HedgeEntry] = {}
        #: Winner dispatch→completion latencies, feeding the adaptive
        #: delay.  A private instance (not registry-owned) so parallel
        #: clusters in one process never share adaptation state.
        self.latency = Histogram("repro.core.hedge.latency")
        registry = get_registry()
        self._tm_fired = registry.counter("repro.core.hedge.fired")
        self._tm_won = registry.counter("repro.core.hedge.won")
        self._tm_cancelled = registry.counter("repro.core.hedge.cancelled")
        self._tm_refunded_grps = registry.counter("repro.core.hedge.refunded_grps")
        self._tm_starved = registry.counter("repro.core.hedge.no_alternate")

    def __repr__(self) -> str:
        return "<HedgeManager policy={} tracked={}>".format(
            self.config.hedge_policy, len(self._entries)
        )

    # -- delay policy ---------------------------------------------------

    def hedge_delay(self) -> float:
        """Seconds a request may run before it earns a clone."""
        if (
            self.config.hedge_policy == HEDGE_P95
            and self.latency.count >= _MIN_LATENCY_SAMPLES
        ):
            adaptive = self.latency.quantile(0.95)
            if adaptive > 0.0:
                return adaptive
        return self.config.hedge_delay_s

    # -- lifecycle ------------------------------------------------------

    def on_primary_dispatch(
        self, item: object, rpn_id: str, subscriber: str, predicted: ResourceVector
    ) -> None:
        """Start tracking a freshly dispatched request.

        The hedge timer is armed here and nowhere else, so a request
        earns at most one clone.
        """
        entry = _HedgeEntry(item, subscriber, rpn_id, predicted, self.now())
        self._entries[id(item)] = entry
        self.call_later(self.hedge_delay(), self._maybe_hedge, entry)

    def _maybe_hedge(self, entry: _HedgeEntry) -> None:
        if self._entries.get(id(entry.item)) is not entry or entry.resolved:
            return
        predicted = entry.copies[entry.primary]
        exclude = frozenset(entry.copies)
        target = self.hooks.pick_clone(entry.item, predicted, exclude)
        if target is None:
            self._tm_starved.inc()
            return
        # A clone is a real second dispatch: it debits the subscriber's
        # ledger and the target's load window just like the primary did,
        # and earns its refund only if it loses and cancels cleanly.
        self.accounting.on_dispatch(entry.subscriber, target, predicted)
        self.node_scheduler.on_dispatch(target, predicted)
        entry.copies[target] = predicted
        self._tm_fired.inc()
        self.hooks.dispatch_clone(entry.item, target, entry.subscriber)

    def on_completion(self, item: object, rpn_id: str) -> bool:
        """Note one copy finishing on ``rpn_id``.

        Returns ``True`` when the completion should count toward
        user-visible statistics (untracked requests and every first
        completion), ``False`` for a loser that finished before its
        cancellation landed — its samples must be suppressed so no
        request is ever counted twice.
        """
        entry = self._entries.get(id(item))
        if entry is None or entry.item is not item:
            return True
        if entry.resolved:
            # A loser raced its cancellation and completed anyway.  Its
            # measured usage stands (resources were really consumed and
            # the feedback loop backs out its prediction normally), but
            # the request was already answered by the winner.
            entry.copies.pop(rpn_id, None)
            if not entry.copies:
                self._entries.pop(id(item), None)
            return False
        entry.resolved = True
        self.latency.observe(self.now() - entry.dispatched_at)
        if rpn_id != entry.primary:
            self._tm_won.inc()
        for other, predicted in list(entry.copies.items()):
            if other == rpn_id:
                continue
            if self.hooks.cancel(item, other, entry.subscriber):
                self._tm_cancelled.inc()
                # ``False`` when the prediction is already gone (the node
                # died and ``forget_rpn`` restored it wholesale).
                if self.accounting.on_cancel(entry.subscriber, other, predicted):
                    # The cancelled copy will never be reported complete,
                    # so its share of the node's load is released here.
                    self.node_scheduler.on_feedback(other, predicted)
                    self._tm_refunded_grps.inc(
                        predicted.in_generic_requests(self.config.generic_request)
                    )
                entry.copies.pop(other, None)
        # From here on ``copies`` holds only losers that could not be
        # cancelled; the entry survives exactly until each has finished
        # (and been suppressed) or died with its node.
        entry.copies.pop(rpn_id, None)
        if not entry.copies:
            self._entries.pop(id(item), None)
        return True

    def filter_requeue(self, rpn_id: str, items: Sequence[object]) -> List[object]:
        """Node-death triage: which of ``items`` deserve a requeue.

        A copy lost with its node is *not* requeued when a sibling copy
        is still live elsewhere (the hedge already is the retry); a sole
        copy is requeued as usual.  No refunds here — ``forget_rpn``
        restored the dead node's predictions wholesale.
        """
        requeue: List[object] = []
        for item in items:
            entry = self._entries.get(id(item))
            if entry is None or entry.item is not item:
                requeue.append(item)
                continue
            entry.copies.pop(rpn_id, None)
            if entry.resolved:
                # Already answered; the dead node only held a straggling
                # loser whose completion will now never arrive.
                if not entry.copies:
                    self._entries.pop(id(item), None)
                continue
            if entry.copies:
                continue  # a live sibling still carries the request
            self._entries.pop(id(item), None)
            requeue.append(item)
        return requeue
