"""Arming a fault schedule against a live cluster."""

from __future__ import annotations

from typing import List, Tuple

from repro.faults.schedule import (
    CRASH,
    HANG,
    HEAL,
    PARTITION,
    RESTART,
    RESUME,
    SLOW,
    FaultAction,
    FaultSchedule,
)


class FaultInjector:
    """Fires a :class:`FaultSchedule` on the simulator clock.

    ``cluster`` is duck-typed: it needs ``crash(target)``,
    ``restore(target)``, ``hang(target)``, ``resume(target)``,
    ``slow(target, factor)``, ``partition(target)`` and
    ``heal(target)`` — :class:`~repro.core.simulation.GageCluster`
    provides all seven.  Every action that fires is appended to
    :attr:`applied` as ``(fired_at_s, action)``.
    """

    def __init__(self, env, cluster, schedule: FaultSchedule) -> None:
        self.env = env
        self.cluster = cluster
        self.schedule = schedule
        self.applied: List[Tuple[float, FaultAction]] = []
        actions = schedule.actions()
        for action in actions:
            if action.at_s < env.now:
                raise ValueError(
                    "fault at {:.3f}s is already in the past (now={:.3f}s)".format(
                        action.at_s, env.now
                    )
                )
        env.call_later_each([action.at_s - env.now for action in actions], self._fire, actions)

    def __repr__(self) -> str:
        return "<FaultInjector {}/{} fired>".format(
            len(self.applied), len(self.schedule)
        )

    def _fire(self, action: FaultAction) -> None:
        if action.kind == CRASH:
            self.cluster.crash(action.target)
        elif action.kind == RESTART:
            self.cluster.restore(action.target)
        elif action.kind == HANG:
            self.cluster.hang(action.target)
        elif action.kind == RESUME:
            self.cluster.resume(action.target)
        elif action.kind == SLOW:
            self.cluster.slow(action.target, action.factor)
        elif action.kind == PARTITION:
            self.cluster.partition(action.target)
        elif action.kind == HEAL:
            self.cluster.heal(action.target)
        else:  # pragma: no cover - schedule validation forbids this
            raise RuntimeError("unreachable fault kind: {!r}".format(action.kind))
        self.applied.append((self.env.now, action))
