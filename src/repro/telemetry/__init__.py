"""``repro.telemetry`` — dependency-free metrics and sinks.

The observability layer every paper metric is derived from: counters,
gauges and fixed-bucket histograms, all registered in a
process-wide :class:`MetricRegistry` with pluggable sinks (in-memory,
JSONL, one-line console reporter).

Metric names follow ``repro.<layer>.<name>`` (see docs/architecture.md
§Telemetry).  Recording is always on and near-free; *exporting* only
happens through explicitly attached sinks, and attaching sinks never
changes simulation results — determinism is tested, not promised.

Quick use::

    from repro import telemetry

    telemetry.counter("repro.demo.widgets").inc()
    telemetry.get_registry().add_sink(telemetry.JSONLSink("run.jsonl"))
    telemetry.get_registry().flush(now=env.now)
    telemetry.reset()  # between tests
"""

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    Metric,
    exponential_buckets,
    label_key,
)
from repro.telemetry.registry import (
    MetricRegistry,
    counter,
    get_registry,
    reset,
    set_registry,
)
from repro.telemetry.sinks import (
    ConsoleReporter,
    InMemorySink,
    JSONLSink,
    Sink,
    read_jsonl,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "ConsoleReporter",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JSONLSink",
    "Metric",
    "MetricRegistry",
    "Sink",
    "counter",
    "exponential_buckets",
    "get_registry",
    "label_key",
    "read_jsonl",
    "reset",
    "set_registry",
]
