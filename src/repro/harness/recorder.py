"""Periodic time-series sampling of simulation state.

A :class:`Recorder` samples named gauges on a fixed period and exposes
the series for analysis — queue depths, CPU utilization, balances —
whatever the probes return.  Used by experiments that look at dynamics
rather than end-of-run aggregates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.sim.engine import Environment

#: A gauge returns the current value of some quantity.
Gauge = Callable[[], float]


class Recorder:
    """Samples a set of gauges every ``period_s`` of simulated time."""

    def __init__(self, env: Environment, period_s: float = 0.1) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.period_s = period_s
        self._gauges: Dict[str, Gauge] = {}
        self._series: Dict[str, List[Tuple[float, float]]] = {}
        self._proc = env.process(self._loop())

    def add_gauge(self, name: str, gauge: Gauge) -> None:
        """Register a gauge; sampling starts at the next tick."""
        if name in self._gauges:
            raise RuntimeError("gauge {!r} already registered".format(name))
        self._gauges[name] = gauge
        self._series[name] = []

    def series(self, name: str) -> List[Tuple[float, float]]:
        """The (time, value) samples of one gauge."""
        return self._series[name]

    def _loop(self):
        while True:
            yield self.env.timeout(self.period_s)
            now = self.env.now
            for name, gauge in self._gauges.items():
                self._series[name].append((now, float(gauge())))
