"""Deterministic fault injection for Gage clusters.

Failures in the paper's setting are mundane — a back-end node crashes,
an operator restarts it, a handshake-offload node wedges, a switch port
flaps — but their *timing* relative to accounting and scheduling cycles
decides whether the QoS guarantees hold through them.  This package
makes those timings first-class and reproducible:

- :class:`FaultAction` — one timed fault (crash / restart / hang /
  resume / slow / partition / heal) against one named target;
- :class:`FaultSchedule` — a validated, time-ordered plan of actions,
  built from the common shapes (:meth:`FaultSchedule.crash_restart`,
  ``hang_resume``, ``degrade``, ``partition_heal``) and merged with
  :meth:`FaultSchedule.extend`;
- :class:`FaultInjector` — arms a schedule against a cluster on the
  simulator clock and records what actually fired.

The injector is duck-typed against the cluster (it only calls
``crash``/``restore``/``hang``/``resume``/``slow``/``partition``/
``heal``), so this package never imports ``repro.core`` and anything
exposing those methods can be fault-tested.
"""

from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    CRASH,
    FAULT_KINDS,
    HANG,
    HEAL,
    PARTITION,
    RESTART,
    RESUME,
    SLOW,
    FaultAction,
    FaultSchedule,
)

__all__ = [
    "CRASH",
    "RESTART",
    "HANG",
    "RESUME",
    "SLOW",
    "PARTITION",
    "HEAL",
    "FAULT_KINDS",
    "FaultAction",
    "FaultSchedule",
    "FaultInjector",
]
