"""Attribute profiled host time to layers, from outside ``src/``.

A layer is a module path: ``repro/<pkg>/<file>.py`` is charged to
``<pkg>.<file>`` and rolled up to ``<pkg>``, so a refactor inside a
package cannot break the attribution.  ``asyncio`` and ``selectors`` are
the ``loop`` layer; time blocked in the selector is ``loop.idle``.
Everything else the profiler sees — built-ins, the standard library,
dataclass-generated code — is *transparent*: its self time is charged to
the layer of whoever called it, following the profiler's caller edges.
What reaches no layer (the frames the profiler was enabled inside, the
benchmark's own code) is ``other``.

Every function's self time lands in exactly one bucket, so the buckets
sum to the profiler's total by construction; :func:`LayerProfile.stop`
also measures the wall clock around the profiled region so callers can
check that the total matches it.
"""

from __future__ import annotations

import asyncio
import cProfile
import os
import pstats
import selectors
import time
from typing import Dict, Optional, Tuple

from common import BENCH_DIR, add_src_to_path

add_src_to_path()
import repro  # noqa: E402

_Func = Tuple[str, int, str]

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_ASYNCIO_DIR = os.path.dirname(os.path.abspath(asyncio.__file__)) + os.sep
_SELECTORS_FILE = os.path.abspath(selectors.__file__)

OTHER = "other"
LOOP = "loop"
LOOP_IDLE = "loop.idle"

#: Selector waits as cProfile names them (epoll here; the rest for other
#: platforms' default selectors).
_IDLE_NAMES = (
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'poll' of 'select.poll' objects>",
    "<built-in method select.select>",
    "<method 'control' of 'select.kqueue' objects>",
)


def classify(func: _Func) -> Optional[str]:
    """The layer that owns ``func``, or ``None`` if it is transparent."""
    filename, _line, name = func
    if filename == "~":
        return LOOP_IDLE if name in _IDLE_NAMES else None
    if filename.startswith(_REPRO_DIR):
        parts = filename[len(_REPRO_DIR):].split(os.sep)
        stem = os.path.splitext(parts[-1])[0]
        if len(parts) == 1:
            return stem  # top-level module, e.g. resources.py
        return "{}.{}".format(parts[0], stem)
    if filename.startswith(_ASYNCIO_DIR) or filename == _SELECTORS_FILE:
        return LOOP
    if filename.startswith(BENCH_DIR + os.sep):
        return OTHER
    return None


def attribute(stats: Dict[_Func, tuple]) -> Dict[str, float]:
    """Self seconds per ``<pkg>.<file>`` bucket from raw pstats entries."""
    shares: Dict[_Func, Dict[str, float]] = {}
    in_progress = set()

    def owner_shares(func: _Func) -> Dict[str, float]:
        """How one unit of time spent *under* ``func`` splits across layers."""
        cached = shares.get(func)
        if cached is not None:
            return cached
        layer = classify(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            in_progress.add(func)
            weighted: Dict[str, float] = {}
            total = 0.0
            for caller, edge in (stats[func][4] if func in stats else {}).items():
                weight = edge[3]  # cumulative time under this edge
                if weight <= 0 or caller in in_progress:
                    continue  # (recursion through transparent code is cut)
                total += weight
                for name, share in owner_shares(caller).items():
                    weighted[name] = weighted.get(name, 0.0) + weight * share
            in_progress.discard(func)
            if total > 0:
                result = {name: value / total for name, value in weighted.items()}
            else:
                result = {OTHER: 1.0}
        shares[func] = result
        return result

    buckets: Dict[str, float] = {}
    for func, (_cc, _nc, self_s, _ct, callers) in stats.items():
        layer = classify(func)
        if layer is not None:
            buckets[layer] = buckets.get(layer, 0.0) + self_s
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0:
            buckets[OTHER] = buckets.get(OTHER, 0.0) + self_s
            continue
        for caller, edge in callers.items():
            portion = self_s * edge[2] / edge_total
            if portion <= 0:
                continue
            for name, share in owner_shares(caller).items():
                buckets[name] = buckets.get(name, 0.0) + portion * share
    return buckets


class LayerProfile:
    """cProfile around one timed region, reduced to per-layer self time."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._started = 0.0
        self.wall_s = 0.0

    def start(self) -> None:
        self._started = time.perf_counter()
        self._profile.enable()

    def stop(self) -> Dict[str, float]:
        """Stop profiling; return ``{bucket: self seconds}``."""
        self._profile.disable()
        self.wall_s = time.perf_counter() - self._started
        return attribute(pstats.Stats(self._profile).stats)


def family_total(buckets: Dict[str, float], family: str) -> float:
    """Self seconds of a package: its own bucket plus every ``family.*``."""
    prefix = family + "."
    return sum(
        value
        for name, value in buckets.items()
        if name == family or (name.startswith(prefix) and name != LOOP_IDLE)
    )
