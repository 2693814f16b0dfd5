"""The process-wide metric registry.

One :class:`MetricRegistry` holds every metric instance by
(name, labels) and fans snapshots/events out to its sinks.  A default
registry exists per process; tests swap or reset it between cases.

The registry is intentionally permissive about double registration:
``counter("x")`` always returns *the* counter named ``x``, creating it
on first use — instrumentation points scattered across modules never
need to coordinate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelPairs,
    Metric,
    label_key,
)
from repro.telemetry.sinks import Sink

_MetricKey = Tuple[str, LabelPairs]


class MetricRegistry:
    """All metrics of one process, plus the attached sinks."""

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._metrics: Dict[_MetricKey, Metric] = {}
        self._sinks: List[Sink] = []
        #: Monotonic count of flush() calls, stamped into snapshots.
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return "<MetricRegistry {} metrics={} sinks={}>".format(
            self.name, len(self._metrics), len(self._sinks)
        )

    # -- metric accessors (get-or-create) ----------------------------------

    def _get_or_create(
        self, cls, name: str, labels: Dict[str, str], **kwargs: object
    ) -> Metric:
        key = (name, label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                "metric {!r} already registered as {}".format(
                    name, type(metric).__name__
                )
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        """The histogram called ``name``.

        ``bounds`` only applies at creation; later calls return the
        existing instance with its original bucket boundaries.
        """
        key = (name, label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, bounds=bounds, labels=labels)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                "metric {!r} already registered as {}".format(
                    name, type(metric).__name__
                )
            )
        return metric

    def get(self, name: str, **labels: str) -> Optional[Metric]:
        """Look up an existing metric without creating it."""
        return self._metrics.get((name, label_key(labels)))

    def metrics(self, prefix: str = "") -> List[Metric]:
        """Registered metrics (optionally filtered), sorted by full name."""
        found = [
            metric
            for metric in self._metrics.values()
            if metric.name.startswith(prefix)
        ]
        return sorted(found, key=lambda metric: metric.full_name)

    # -- sinks --------------------------------------------------------------

    def add_sink(self, sink: Sink) -> Sink:
        """Attach a sink; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        """Detach a sink (no error if absent)."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    @property
    def sinks(self) -> List[Sink]:
        """The attached sinks (copy)."""
        return list(self._sinks)

    def emit(self, event: Dict[str, object]) -> None:
        """Push one discrete event (closed span, mark) to every sink."""
        for sink in self._sinks:
            sink.on_event(event)

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        """All metric values as one JSON-able document."""
        metrics = {}
        for metric in self.metrics():
            entry = {"kind": metric.kind}
            entry.update(metric.value_dict())
            metrics[metric.full_name] = entry
        return {"registry": self.name, "at": now, "metrics": metrics}

    def flush(self, now: Optional[float] = None) -> Dict[str, object]:
        """Snapshot and fan out to every sink; returns the snapshot."""
        self.flushes += 1
        snapshot = self.snapshot(now)
        for sink in self._sinks:
            sink.on_snapshot(snapshot)
        return snapshot

    def tick(self) -> None:
        """Give rate-limited sinks (console reporter) a chance to report.

        Cheap no-op without sinks, so instrumented loops can call it
        unconditionally.
        """
        for sink in self._sinks:
            sink.tick(self)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Drop every metric and detach (closing) every sink.

        Existing metric handles cached by instrumented objects keep
        working but are no longer visible in snapshots — exactly what a
        test wants between cases.
        """
        self._metrics.clear()
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()
        self.flushes = 0

    def reset_values(self) -> None:
        """Zero every metric in place, keeping registrations and sinks."""
        for metric in self._metrics.values():
            metric.reset()


#: The process-wide default registry.
_default_registry = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-wide registry instrumented code records into."""
    return _default_registry


def set_registry(registry: MetricRegistry) -> MetricRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def reset() -> None:
    """Reset the process-wide registry (metrics and sinks)."""
    _default_registry.reset()


# -- module-level conveniences bound to the default registry ---------------

def counter(name: str, **labels: str) -> Counter:
    """``get_registry().counter(...)``."""
    return _default_registry.counter(name, **labels)
