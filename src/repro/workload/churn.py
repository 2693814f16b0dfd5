"""Subscriber churn: join/leave event streams for a running cluster.

The paper's experiments run a fixed subscriber population; a hosting
platform at scale does not — customers sign up and depart while the
cluster serves.  This generator produces a reproducible (seeded) stream
of join/leave events that drives the control plane's churn APIs
(:meth:`~repro.core.rdn.PrimaryRDN.register_subscriber` /
``deregister_subscriber``), which is what the scale benchmark and the
churn tests replay.

Joins and leaves are Poisson processes; a leave removes a uniformly
chosen *churnable* live subscriber.  Subscribers present at time zero
can be pinned (``protect_initial``) so a workload's guaranteed
customers survive the run while the churning tail turns over around
them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.subscriber import Subscriber

JOIN = "join"
LEAVE = "leave"


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change, in simulation time.

    ``subscriber`` is populated for joins (the full reservation to
    admit) and None for leaves, which carry only the departing name.
    """

    at_s: float
    kind: str
    name: str
    subscriber: Optional[Subscriber] = None


@dataclass
class ChurnWorkload:
    """A seeded join/leave event stream over a subscriber population.

    Parameters
    ----------
    initial:
        Subscribers present before time zero (returned by
        :meth:`initial_subscribers`, not as events).
    joins_per_s, leaves_per_s:
        Poisson rates of the two event processes.
    duration_s:
        Length of the generated event stream.
    reservation_grps:
        Reservation assigned to every generated subscriber.
    queue_capacity:
        Queue bound for generated subscribers.
    protect_initial:
        When True (default) leaves only remove subscribers that joined
        mid-run, never the initial population.
    """

    initial: int
    joins_per_s: float
    leaves_per_s: float
    duration_s: float
    reservation_grps: float = 1.0
    queue_capacity: int = 64
    protect_initial: bool = True
    name_prefix: str = "sub"
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.initial < 0:
            raise ValueError("initial population must be non-negative")
        if self.joins_per_s < 0 or self.leaves_per_s < 0:
            raise ValueError("churn rates must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.reservation_grps < 0:
            raise ValueError("reservation must be non-negative")
        self._rng = random.Random(self.seed)

    def _subscriber(self, index: int) -> Subscriber:
        return Subscriber(
            name="{}{:06d}".format(self.name_prefix, index),
            reservation_grps=self.reservation_grps,
            queue_capacity=self.queue_capacity,
        )

    def initial_subscribers(self) -> List[Subscriber]:
        """The population registered before the event stream starts."""
        return [self._subscriber(index) for index in range(self.initial)]

    def generate(self) -> List[ChurnEvent]:
        """The merged join/leave stream, sorted by time.

        Leaves arriving while nothing is churnable are dropped (there is
        nobody to remove), so every generated event is applicable when
        replayed in order.
        """
        rng = self._rng
        events: List[ChurnEvent] = []
        join_times = self._poisson_times(self.joins_per_s)
        leave_times = self._poisson_times(self.leaves_per_s)
        merged = [(at, JOIN) for at in join_times] + [
            (at, LEAVE) for at in leave_times
        ]
        merged.sort()
        next_index = self.initial
        churnable: List[str] = (
            []
            if self.protect_initial
            else [s.name for s in self.initial_subscribers()]
        )
        for at, kind in merged:
            if kind == JOIN:
                subscriber = self._subscriber(next_index)
                next_index += 1
                churnable.append(subscriber.name)
                events.append(
                    ChurnEvent(at, JOIN, subscriber.name, subscriber=subscriber)
                )
            elif churnable:
                victim = churnable.pop(rng.randrange(len(churnable)))
                events.append(ChurnEvent(at, LEAVE, victim))
        return events

    def _poisson_times(self, rate: float) -> List[float]:
        if rate <= 0:
            return []
        rng = self._rng
        times: List[float] = []
        at = rng.expovariate(rate)
        while at < self.duration_s:
            times.append(at)
            at += rng.expovariate(rate)
        return times
