"""Serialized benchmark results for CI regression gating.

Each benchmark module run with ``--benchstore DIR`` leaves behind one
``BENCH_<suite>.json`` document: the per-test timing summary (median and
p95 over the rounds pytest-benchmark measured), any ``extra_info`` the
test attached (paper-figure numbers like deviation percentages), and an
environment stamp.  ``scripts/bench_compare.py`` diffs two such
documents and fails CI when a timing or figure drifts past tolerance.

The schema is versioned so the compare script can refuse documents it
does not understand instead of mis-reading them.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Dict, List, Optional, Sequence

#: Bump on any incompatible change to the document layout.
SCHEMA = "repro.bench/1"

#: The summary statistics every benchmark record carries, in order.
STAT_FIELDS = ("median_s", "p95_s", "mean_s", "min_s", "max_s")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def environment_stamp() -> Dict[str, str]:
    """Where the numbers were measured (informational, not compared).

    ``cpus`` lets the compare script demote assertions that need real
    parallelism (``min_cores`` in a record's ``extra_info``) to advisory
    on small runners instead of committing their numbers as truth.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": str(os.cpu_count() or 0),
    }


def record_benchmark(bench) -> Dict[str, object]:
    """Summarize one finished pytest-benchmark fixture into a record.

    ``bench`` is the ``benchmark`` fixture after the test body ran; its
    raw per-round timings live at ``bench.stats.stats.data``.
    """
    if bench.stats is None:
        raise ValueError("benchmark {!r} has no stats (never run?)".format(bench.name))
    data: List[float] = list(bench.stats.stats.data)
    if not data:
        raise ValueError("benchmark {!r} recorded no rounds".format(bench.name))
    extra_info = {
        key: value
        for key, value in sorted(dict(bench.extra_info).items())
        if isinstance(value, (int, float, str, bool))
    }
    return {
        "name": bench.name,
        "group": bench.group,
        "rounds": len(data),
        "median_s": percentile(data, 0.5),
        "p95_s": percentile(data, 0.95),
        "mean_s": sum(data) / len(data),
        "min_s": min(data),
        "max_s": max(data),
        "extra_info": extra_info,
    }


def suite_document(suite: str, records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Assemble the full BENCH_<suite>.json document."""
    return {
        "schema": SCHEMA,
        "suite": suite,
        "environment": environment_stamp(),
        "benchmarks": {str(record["name"]): record for record in records},
    }


def suite_filename(suite: str) -> str:
    """The canonical on-disk name for one suite's document."""
    return "BENCH_{}.json".format(suite)


def write_suite(
    directory: str, suite: str, records: Sequence[Dict[str, object]]
) -> str:
    """Write one suite's document into ``directory``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, suite_filename(suite))
    document = suite_document(suite, records)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def validate_suite(document: Dict[str, object]) -> None:
    """Raise ValueError unless ``document`` is a well-formed suite doc."""
    if not isinstance(document, dict):
        raise ValueError("bench document must be an object")
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            "unsupported bench schema {!r} (expected {!r})".format(schema, SCHEMA)
        )
    if not isinstance(document.get("suite"), str):
        raise ValueError("bench document missing 'suite' string")
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, dict):
        raise ValueError("bench document missing 'benchmarks' object")
    for name, record in benchmarks.items():
        if not isinstance(record, dict):
            raise ValueError("benchmark {!r} record must be an object".format(name))
        for field in STAT_FIELDS:
            value = record.get(field)
            if not isinstance(value, (int, float)):
                raise ValueError(
                    "benchmark {!r} missing numeric {!r}".format(name, field)
                )
        extra = record.get("extra_info", {})
        if not isinstance(extra, dict):
            raise ValueError("benchmark {!r} extra_info must be an object".format(name))


def load_suite(path: str) -> Dict[str, object]:
    """Read and validate one BENCH_*.json document."""
    with open(path) as handle:
        document = json.load(handle)
    validate_suite(document)
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.harness.benchstore FILE...`` validates documents."""
    paths = list(argv if argv is not None else sys.argv[1:])
    if not paths:
        print("usage: python -m repro.harness.benchstore BENCH_*.json", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            document = load_suite(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print("{}: INVALID ({})".format(path, exc))
            status = 1
        else:
            print(
                "{}: ok (suite={}, {} benchmarks)".format(
                    path, document["suite"], len(document["benchmarks"])
                )
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
