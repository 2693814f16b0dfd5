"""The "which RPN" decision: load balancing across back-end nodes (§3.4).

"Gage attempts to maximize the system utilization efficiency by balancing
the load on the RPNs, in other words, dispatching a request to the RPN
with the least load."  The load measure is each RPN's *estimated
outstanding load* — the summed predicted usage of requests dispatched
there and not yet reported complete (§3.5).

The ``locality`` policy implements §3.6's content-aware dispatching:
"URL pages in the same proximity should be serviced by the same RPN to
exploit access locality" — requests hash by (host, directory) to a
preferred node, falling back to least-load when it lacks headroom, so
each node's buffer cache holds a stable slice of the document tree.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.config import (
    NODE_POLICIES,
    NODES_LEAST_LOAD,
    NODES_LOCALITY,
    NODES_ROUND_ROBIN,
    GageConfig,
)
from repro.core.grps import ResourceVector


def locality_key(request: object) -> Optional[str]:
    """The proximity key of a request: its host plus directory.

    Accepts either a raw request object (anything with ``host``/``path``)
    or the RDN's queue items that wrap one in a ``request`` attribute.
    Returns None when no URL structure is available, in which case the
    locality policy degrades to least-load.
    """
    inner = getattr(request, "request", request)
    host = getattr(inner, "host", None)
    path = getattr(inner, "path", None)
    if host is None or path is None:
        return None
    directory = path.rsplit("/", 1)[0] if "/" in path else ""
    return "{}|{}".format(host, directory or "/")


@dataclass
class RPNStatus:
    """The RDN's view of one back-end node."""

    rpn_id: str
    #: Resource delivered per second of wall time (1 CPU ⇒ cpu_s=1.0, etc.)
    capacity_per_s: ResourceVector
    #: Summed predicted usage of dispatched, not-yet-reported requests.
    outstanding: ResourceVector = field(default_factory=lambda: ResourceVector.ZERO)
    dispatched: int = 0
    #: Health state: a down node receives no dispatches and contributes
    #: no capacity to the spare pool until re-admitted.
    up: bool = True
    #: When the failure detector marked the node down (None while up).
    down_since: Optional[float] = None
    #: How many times this node has been declared dead over the run.
    failures: int = 0
    #: ``(outstanding, capacity_per_s, load)`` behind :meth:`load_seconds`.
    _load_memo: Tuple[object, object, float] = field(
        default=(None, None, 0.0), init=False, repr=False, compare=False
    )

    def load_seconds(self) -> float:
        """Outstanding work expressed as seconds of the busiest resource.

        Memoised on the *identity* of ``(outstanding, capacity_per_s)``.
        Both are immutable vectors that every writer replaces — dispatch
        and feedback here, but also plain assignments by an operator or a
        test — so any write is a new object and misses the memo, while the
        memo's own references keep an id from being reused.  Equality
        would cost three float compares and would let ``-0.0`` stand in
        for ``0.0``, whose load differs in sign.
        """
        outstanding, capacity, load = self._load_memo
        if outstanding is self.outstanding and capacity is self.capacity_per_s:
            return load
        outstanding = self.outstanding
        capacity = self.capacity_per_s
        load = outstanding.dominant_fraction_of(capacity)
        self._load_memo = (outstanding, capacity, load)
        return load

    def has_headroom(self, predicted: ResourceVector, window_s: float) -> bool:
        """Can this node take one more request of ``predicted`` usage
        without exceeding ``window_s`` seconds of queued work?"""
        return (
            self.outstanding.dominant_fraction_after(predicted, self.capacity_per_s)
            <= window_s
        )


class NodeScheduler:
    """Selects the servicing RPN for each dispatched request."""

    def __init__(
        self,
        policy: str = GageConfig.node_policy,
        window_s: float = 0.25,
        rng: Optional[random.Random] = None,
    ) -> None:
        if policy not in NODE_POLICIES:
            raise ValueError("unknown node policy: {!r}".format(policy))
        self.policy = policy
        self.window_s = float(window_s)
        self._rng = rng or random.Random(0)
        self._nodes: Dict[str, RPNStatus] = {}
        self._rr_index = 0
        #: Memoized :meth:`total_capacity_per_s`; capacities change only
        #: on node add / health transitions / :meth:`set_capacity`, but the
        #: spare-pool math reads the total every scheduling cycle.
        self._capacity_cache: Optional[ResourceVector] = None

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(self, rpn_id: str, capacity_per_s: ResourceVector) -> RPNStatus:
        """Register a back-end node."""
        if rpn_id in self._nodes:
            raise RuntimeError("node {!r} already registered".format(rpn_id))
        status = RPNStatus(rpn_id, capacity_per_s)
        self._nodes[rpn_id] = status
        self._capacity_cache = None
        return status

    def set_capacity(self, rpn_id: str, capacity_per_s: ResourceVector) -> None:
        """Replace one node's capacity (a throttled CPU, a slower link).

        Goes through here rather than assigning the status record's
        ``capacity_per_s``, which would leave :meth:`total_capacity_per_s`
        — and with it the spare pool — at the old figure.
        """
        self._nodes[rpn_id].capacity_per_s = capacity_per_s
        self._capacity_cache = None

    def node(self, rpn_id: str) -> RPNStatus:
        """The status record for one node."""
        return self._nodes[rpn_id]

    def get(self, rpn_id: str) -> Optional[RPNStatus]:
        """The status record for one node, or None if unregistered."""
        return self._nodes.get(rpn_id)

    def nodes(self) -> List[RPNStatus]:
        """All nodes in registration order."""
        return list(self._nodes.values())

    def up_nodes(self) -> List[RPNStatus]:
        """Nodes currently considered alive, in registration order."""
        return [status for status in self._nodes.values() if status.up]

    def total_capacity_per_s(self) -> ResourceVector:
        """Cluster-wide capacity per second, *surviving nodes only*.

        A dead node's capacity leaving this sum is what re-distributes
        its share: the spare pool (capacity minus reservations) shrinks,
        and the spare pass splits what remains among the still-backlogged
        subscribers in reservation proportion — the same path that
        distributes spare in the healthy cluster.
        """
        total = self._capacity_cache
        if total is None:
            total = ResourceVector.ZERO
            for status in self._nodes.values():
                if status.up:
                    total = total + status.capacity_per_s
            self._capacity_cache = total
        return total

    # -- health transitions --------------------------------------------------

    def mark_down(self, rpn_id: str, at_s: float = 0.0) -> None:
        """Take a node out of rotation and forget its outstanding load."""
        status = self._nodes[rpn_id]
        if not status.up:
            return
        status.up = False
        status.down_since = at_s
        status.failures += 1
        self._capacity_cache = None
        # The predictions behind this load are backed out by the caller
        # (RDNAccounting.forget_rpn); keeping them here would poison the
        # load ranking on re-admission.
        status.outstanding = ResourceVector.ZERO

    def mark_up(self, rpn_id: str) -> None:
        """Re-admit a recovered node with a drained (empty) load state."""
        status = self._nodes[rpn_id]
        status.up = True
        status.down_since = None
        status.outstanding = ResourceVector.ZERO
        self._capacity_cache = None

    # -- selection -----------------------------------------------------------

    def pick(
        self,
        predicted: ResourceVector,
        request: object = None,
        exclude: Optional[FrozenSet[str]] = None,
        allowed: Optional[FrozenSet[str]] = None,
    ) -> Optional[str]:
        """Choose the RPN for a request with ``predicted`` usage.

        ``request`` is consulted only by the ``locality`` policy (the
        §3.6 content-aware optimization).  ``exclude`` names nodes that
        must not be chosen — the hedging layer passes the nodes already
        holding a copy, so a clone always lands elsewhere.  ``allowed``,
        when not None, restricts the choice to that set — the placement
        layer passes the subscriber's embedded primary, so dispatch
        follows the embedding (an empty set means no node may serve the
        subscriber).  Returns None when no eligible node has headroom
        (cluster saturated); the request stays queued for a later
        scheduling cycle.
        """
        if self.policy == NODES_LEAST_LOAD:
            # Single pass, no eligibility list: the default policy runs on
            # every dispatch attempt of every scheduling cycle.  Ties keep
            # the earliest (registration-order) node, exactly like
            # ``min(eligible, key=...)`` over the filtered list did.
            window = self.window_s
            best = None
            best_load = 0.0
            for status in self._nodes.values():
                if not status.up:
                    continue
                if exclude is not None and status.rpn_id in exclude:
                    continue
                if allowed is not None and status.rpn_id not in allowed:
                    continue
                outstanding = status.outstanding
                capacity = status.capacity_per_s
                if outstanding.dominant_fraction_after(predicted, capacity) > window:
                    continue
                # load_seconds() with its memo hit read in place: only the
                # node picked last (or just reported on) misses.
                memo = status._load_memo
                if memo[0] is outstanding and memo[1] is capacity:
                    load = memo[2]
                else:
                    load = status.load_seconds()
                if best is None or load < best_load:
                    best = status
                    best_load = load
            return None if best is None else best.rpn_id
        eligible = [
            status
            for status in self._nodes.values()
            if status.up
            and (exclude is None or status.rpn_id not in exclude)
            and (allowed is None or status.rpn_id in allowed)
            and status.has_headroom(predicted, self.window_s)
        ]
        if not eligible:
            return None
        if self.policy == NODES_LOCALITY:
            preferred = self._preferred_node(request)
            if preferred is not None and preferred in eligible:
                return preferred.rpn_id
            chosen = min(eligible, key=lambda s: s.load_seconds())
        elif self.policy == NODES_ROUND_ROBIN:
            ordered = list(self._nodes.values())
            for offset in range(len(ordered)):
                candidate = ordered[(self._rr_index + offset) % len(ordered)]
                if candidate in eligible:
                    self._rr_index = (self._rr_index + offset + 1) % len(ordered)
                    chosen = candidate
                    break
        else:
            chosen = self._rng.choice(eligible)
        return chosen.rpn_id

    def _preferred_node(self, request: object) -> Optional[RPNStatus]:
        """The stable hash-preferred node for a request's proximity key."""
        key = locality_key(request) if request is not None else None
        if key is None or not self._nodes:
            return None
        digest = hashlib.sha256(key.encode()).digest()
        ordered = list(self._nodes.values())
        return ordered[int.from_bytes(digest[:4], "big") % len(ordered)]

    # -- bookkeeping -----------------------------------------------------------

    def on_dispatch(self, rpn_id: str, predicted: ResourceVector) -> None:
        """Record a dispatch: outstanding load grows by the prediction."""
        status = self._nodes[rpn_id]
        status.outstanding = status.outstanding + predicted
        status.dispatched += 1

    def on_feedback(self, rpn_id: str, backed_out: ResourceVector) -> None:
        """Shrink outstanding load by the predictions of completed work."""
        status = self._nodes[rpn_id]
        status.outstanding = (status.outstanding - backed_out).clamped_min(0.0)
