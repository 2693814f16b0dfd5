"""Telemetry sinks: where snapshots and span events go.

Three implementations cover the use cases named in the design:

- :class:`InMemorySink` — tests inspect what was recorded;
- :class:`JSONLSink` — one JSON object per line, machine-readable;
- :class:`ConsoleReporter` — a single periodic status line for humans.

Sinks are pure observers.  They may write files or stdout, but they
never feed anything back into the code being measured — a registry with
sinks attached must behave byte-for-byte like one without.
"""

from __future__ import annotations

import io
import json
import time
from typing import Dict, List, Optional, Sequence, TextIO, Union


class Sink:
    """Base class; every hook is a no-op."""

    def on_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Receive one registry snapshot (see ``MetricRegistry.flush``)."""

    def on_event(self, event: Dict[str, object]) -> None:
        """Receive one discrete event (a closed span, a mark)."""

    def tick(self, registry: "MetricRegistry") -> None:  # noqa: F821
        """Called opportunistically from instrumented loops."""

    def close(self) -> None:
        """Release any resources (files); further writes are errors."""


class InMemorySink(Sink):
    """Keeps everything in lists; the test-suite sink."""

    def __init__(self) -> None:
        self.snapshots: List[Dict[str, object]] = []
        self.events: List[Dict[str, object]] = []

    def on_snapshot(self, snapshot: Dict[str, object]) -> None:
        self.snapshots.append(snapshot)

    def on_event(self, event: Dict[str, object]) -> None:
        self.events.append(event)


class JSONLSink(Sink):
    """Writes snapshots and events as JSON Lines.

    Accepts a path (opened lazily, closed by :meth:`close`) or any
    text-mode writable object.  Each line is self-describing:
    ``{"type": "snapshot"|"event", ...}``.
    """

    def __init__(self, target: Union[str, TextIO]) -> None:
        self._path: Optional[str] = None
        self._stream: Optional[TextIO] = None
        if isinstance(target, str):
            self._path = target
        else:
            self._stream = target
        self.lines_written = 0

    def _ensure_stream(self) -> TextIO:
        if self._stream is None:
            self._stream = io.open(self._path, "a", encoding="utf-8")
        return self._stream

    def _write(self, record: Dict[str, object]) -> None:
        stream = self._ensure_stream()
        stream.write(json.dumps(record, sort_keys=True, default=str))
        stream.write("\n")
        self.lines_written += 1

    def on_snapshot(self, snapshot: Dict[str, object]) -> None:
        record = {"type": "snapshot"}
        record.update(snapshot)
        self._write(record)

    def on_event(self, event: Dict[str, object]) -> None:
        record = {"type": "event"}
        record.update(event)
        self._write(record)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            if self._path is not None:  # only close streams we opened
                self._stream.close()
            self._stream = None


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Parse a JSONL telemetry file back into records."""
    records = []
    with io.open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class ConsoleReporter(Sink):
    """One status line per wall-clock interval.

    ``tick`` is invoked from instrumented loops (the engine's event
    loop, the RDN scheduler, the proxy); it rate-limits itself against
    the wall clock so enabling it never changes how often simulation
    code runs.
    """

    def __init__(
        self,
        interval_s: float = 1.0,
        prefixes: Optional[Sequence[str]] = None,
        max_fields: int = 8,
        stream: Optional[TextIO] = None,
        clock=time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("report interval must be positive")
        self.interval_s = float(interval_s)
        self.prefixes = tuple(prefixes) if prefixes else ()
        self.max_fields = max_fields
        self.stream = stream
        self.clock = clock
        self.reports = 0
        self._last = clock()

    def _selected(self, registry: "MetricRegistry") -> List[str]:  # noqa: F821
        fields = []
        for metric in registry.metrics():
            if self.prefixes and not metric.name.startswith(self.prefixes):
                continue
            values = metric.value_dict()
            value = values.get("value", values.get("count"))
            if isinstance(value, float) and value == int(value):
                value = int(value)
            fields.append("{}={}".format(metric.full_name, value))
            if len(fields) >= self.max_fields:
                break
        return fields

    def tick(self, registry: "MetricRegistry") -> None:  # noqa: F821
        now = self.clock()
        if now - self._last < self.interval_s:
            return
        self._last = now
        self.reports += 1
        line = "[telemetry] " + " ".join(self._selected(registry))
        if self.stream is not None:
            self.stream.write(line + "\n")
        else:
            print(line)
