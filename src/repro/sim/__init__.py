"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine simulation engine in the style
of SimPy, purpose-built for the Gage reproduction.  The engine provides:

- :class:`~repro.sim.engine.Environment` — the event loop and simulated clock.
- :class:`~repro.sim.engine.TimerStream`, :class:`~repro.sim.engine.Deadline`
  — timers fired in arming order through one heap entry.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.AllOf` —
  the primitive occurrences processes wait on.
- :class:`~repro.sim.process.Process` — generator-based simulated processes
  with interrupt support.
- :class:`~repro.sim.resources.Resource` — the contention primitive.

Determinism: events scheduled for the same simulated time are processed in
(priority, insertion-order) order, so two runs with the same seeds produce
identical traces.
"""

from repro.sim.engine import (
    Deadline,
    Environment,
    NORMAL_PRIORITY,
    TimerStream,
    URGENT_PRIORITY,
)
from repro.sim.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Deadline",
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL_PRIORITY",
    "Process",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "TimerStream",
    "URGENT_PRIORITY",
]
