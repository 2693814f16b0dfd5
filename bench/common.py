"""Shared helpers of the repo benchmark: paths, statistics, environment stamp.

Everything under ``bench/`` reaches the system under test through
``src/repro``'s public surface only; this module is the one place that
knows where that source tree sits relative to the benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
#: Scratch space for child-process temp files (backend sendfile bodies).
#: Inside the checkout, ignored by git, removed when a run ends.
WORK_DIR = os.path.join(ROOT, ".bench_work")


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def load_contract() -> Dict[str, object]:
    """The parsed ``BENCHMARK.json`` at the root of the checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Metrics reported as the median over repeats; the rest from the best repeat.
MEDIAN_METRICS = ("setup_s", "p50_ms", "p95_ms")


def summarize(name: str, values: Sequence[float], better: str) -> Dict[str, object]:
    """The reported value with median, min/quartiles/max and sample count.

    The reported ``value`` of a steady-state cost metric (throughput,
    CPU per request, memory, goodput) is that of the **best** repeat.
    On a shared machine interference only ever makes a repeat slower, so
    the least disturbed repeat is the closest to the program's own cost;
    on the 2-core box this was sized on, the best repeat moved by ~2 %
    from run to run through phases in which the median moved by 25 %.
    A latency quantile varies both ways from window to window (where the
    requests fall in the scheduler's tick) and a set-up is a one-off
    whose fastest instance is a lucky one, so those are the **median**
    over repeats.
    """
    if name in MEDIAN_METRICS:
        value = statistics.median(values)
    else:
        value = min(values) if better == "lower" else max(values)
    return {
        "value": value,
        "median": statistics.median(values),
        "min": min(values),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "max": max(values),
        "n": len(values),
        "samples": list(values),
    }


def relative_spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` — the definition the
    acceptance procedure applies across seeds.  ``None`` below two
    samples or at a zero median.
    """
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(middle)


def resolution(name: str, values: Sequence[float], better: str) -> float:
    """How finely one run pins a metric down, as a share of its value.

    For a metric reported as the median over repeats this is the spread
    of the repeats; for one reported from the best repeat it is the gap
    to the runner-up — a best repeat with no second one near it is a
    fluke, however tight or wide the rest are.
    """
    if len(values) < 2:
        return 0.0
    if name in MEDIAN_METRICS:
        return relative_spread(values) or 0.0
    ranked = sorted(values, reverse=(better == "higher"))
    return abs(ranked[1] - ranked[0]) / abs(ranked[0]) if ranked[0] else 0.0


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_stamp() -> Dict[str, object]:
    """What the numbers were measured on — compared before any A/B."""
    add_src_to_path()
    try:
        from repro import _compiled

        compiled: object = repr(_compiled.status())
    except (ImportError, AttributeError):
        compiled = None
    try:
        import uvloop  # noqa: F401

        uvloop_importable = True
    except ImportError:
        uvloop_importable = False
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "compiled": compiled,
        "uvloop_importable": uvloop_importable,
        "git_sha": _git_sha(),
    }


# -- reading a telemetry registry snapshot ---------------------------------------


def metric_values(snapshot: Dict[str, object], name: str) -> List[Dict[str, object]]:
    """Every labelled series of registry metric ``name`` in a snapshot."""
    found = []
    for full_name, entry in snapshot.get("metrics", {}).items():
        if full_name == name or full_name.startswith(name + "{"):
            found.append(entry)
    return found


def metric_sum(snapshot: Dict[str, object], name: str) -> Optional[float]:
    """Summed value of a counter/gauge; ``None`` if it is not registered."""
    entries = metric_values(snapshot, name)
    if not entries:
        return None
    return float(sum(entry.get("value") or 0.0 for entry in entries))


def histogram_p50(snapshot: Dict[str, object], name: str) -> Optional[float]:
    """Median of a registry histogram: the bound of the bucket holding it."""
    for entry in metric_values(snapshot, name):
        count, bounds, buckets = entry.get("count"), entry.get("bounds"), entry.get("buckets")
        if not count or not bounds or not buckets:
            continue
        seen = 0
        for index, bucket in enumerate(buckets):
            seen += bucket
            if seen >= 0.5 * count:
                return float(bounds[index]) if index < len(bounds) else float(entry["max"])
    return None


def rss_mb(ru_maxrss_kb: float) -> float:
    """``ru_maxrss`` (KiB on Linux) in MiB."""
    return ru_maxrss_kb / 1024.0


def percentile_ms(latencies_s: List[float], q: float) -> float:
    """A latency quantile in milliseconds."""
    return 1e3 * quantile(latencies_s, q)
