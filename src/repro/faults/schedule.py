"""Timed fault plans (what fails, when, and for how long)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

#: A node process dies: it services nothing and reports nothing.
CRASH = "crash"
#: A crashed node comes back with clean state.
RESTART = "restart"
#: A node wedges: dispatched work piles up unserviced, reports stop.
HANG = "hang"
#: A hung node un-wedges.
RESUME = "resume"
#: A node's CPU degrades to ``factor`` of nominal speed (1.0 restores).
SLOW = "slow"
#: A node's network link goes down (packet mode only).
PARTITION = "partition"
#: A partitioned link comes back (packet mode only).
HEAL = "heal"

FAULT_KINDS = frozenset(
    {CRASH, RESTART, HANG, RESUME, SLOW, PARTITION, HEAL}
)


@dataclass(frozen=True)
class FaultAction:
    """One fault applied to one target at one simulated instant."""

    at_s: float
    kind: str
    #: Cluster target name: ``rpnN`` or ``secondaryN``.
    target: str
    #: SLOW only: the CPU-speed multiplier (0 < factor; 1.0 = nominal).
    factor: float = 1.0

    def validate(self) -> None:
        if self.at_s < 0:
            raise ValueError("fault time must be non-negative: {!r}".format(self))
        if self.kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind: {!r}".format(self.kind))
        if not self.target:
            raise ValueError("fault needs a target: {!r}".format(self))
        if self.kind == SLOW and self.factor <= 0:
            raise ValueError("slow factor must be positive: {!r}".format(self))


class FaultSchedule:
    """A validated, time-ordered sequence of fault actions."""

    def __init__(self, actions: Iterable[FaultAction] = ()) -> None:
        self._actions: List[FaultAction] = []
        for action in actions:
            self.add(action)

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self):
        return iter(self.actions())

    def __repr__(self) -> str:
        return "<FaultSchedule {} actions>".format(len(self._actions))

    def add(self, action: FaultAction) -> "FaultSchedule":
        """Validate and append one action; returns self for chaining."""
        action.validate()
        self._actions.append(action)
        return self

    def extend(self, other: "FaultSchedule") -> "FaultSchedule":
        """Merge another schedule's actions into this one."""
        for action in other:
            self.add(action)
        return self

    def actions(self) -> List[FaultAction]:
        """All actions in firing order.

        The sort is stable, so same-instant actions keep insertion
        order — a crash/restart pair at the same time stays a crash
        first.
        """
        return sorted(self._actions, key=lambda a: a.at_s)

    # -- common plan shapes --------------------------------------------------

    @classmethod
    def crash_restart(
        cls, target: str, at_s: float, down_s: float
    ) -> "FaultSchedule":
        """Crash ``target`` at ``at_s``, restart it ``down_s`` later."""
        if down_s <= 0:
            raise ValueError("outage duration must be positive")
        return cls(
            [
                FaultAction(at_s, CRASH, target),
                FaultAction(at_s + down_s, RESTART, target),
            ]
        )

    @classmethod
    def hang_resume(cls, target: str, at_s: float, hung_s: float) -> "FaultSchedule":
        """Wedge ``target`` at ``at_s`` for ``hung_s`` seconds."""
        if hung_s <= 0:
            raise ValueError("hang duration must be positive")
        return cls(
            [
                FaultAction(at_s, HANG, target),
                FaultAction(at_s + hung_s, RESUME, target),
            ]
        )

    @classmethod
    def degrade(
        cls, target: str, at_s: float, factor: float, for_s: float
    ) -> "FaultSchedule":
        """Run ``target`` at ``factor`` CPU speed for ``for_s`` seconds."""
        if for_s <= 0:
            raise ValueError("degradation duration must be positive")
        return cls(
            [
                FaultAction(at_s, SLOW, target, factor=factor),
                FaultAction(at_s + for_s, SLOW, target, factor=1.0),
            ]
        )

    @classmethod
    def partition_heal(
        cls, target: str, at_s: float, for_s: float
    ) -> "FaultSchedule":
        """Cut ``target``'s link at ``at_s``, heal it ``for_s`` later."""
        if for_s <= 0:
            raise ValueError("partition duration must be positive")
        return cls(
            [
                FaultAction(at_s, PARTITION, target),
                FaultAction(at_s + for_s, HEAL, target),
            ]
        )
