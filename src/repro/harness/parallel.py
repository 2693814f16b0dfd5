"""Parallel cartesian sweeps over a ``multiprocessing`` pool.

Figure regeneration is embarrassingly parallel — every sweep point is an
independent fixed-seed simulation — so :class:`ParallelSweep` fans the
grid out over worker processes (or runs it inline with ``processes=0``)
while keeping three properties a serial loop would have:

- **Deterministic seeds.**  Each point's seed is derived by hashing the
  base seed together with the point's (sorted) parameters, so it depends
  on *what* the point is, never on which worker ran it or in what order
  points completed.
- **Deterministic merge.**  Results come back in grid (axis) order
  regardless of completion order — ``Pool.imap(..., chunksize=1)``
  preserves input order, and the grid is built in ``itertools.product``
  order over the axes.
- **Attributable failures.**  A worker that raises doesn't poison the
  pool silently: the failing point's parameters travel back with the
  traceback and surface as a :class:`SweepPointError`.

Runners must be module-level callables (the pool pickles them) and must
take all their randomness from the injected seed parameter.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import registry as _telemetry

#: The experiment body: keyword parameters in, any (picklable) result out.
Runner = Callable[..., Any]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid."""

    params: Dict[str, Any]
    result: Any


class SweepPointError(RuntimeError):
    """One sweep point failed in a worker; carries the point's params."""

    def __init__(self, params: Dict[str, Any], cause: str, worker_traceback: str) -> None:
        super().__init__(
            "sweep point {!r} failed: {}\n--- worker traceback ---\n{}".format(
                params, cause, worker_traceback
            )
        )
        self.params = dict(params)
        self.cause = cause
        self.worker_traceback = worker_traceback


def derive_seed(base_seed: int, params: Dict[str, Any]) -> int:
    """A 63-bit seed from ``base_seed`` and a point's parameters.

    Hashing the *sorted* parameter items makes the seed a pure function
    of the point's identity: reordering axes, adding unrelated points,
    resizing the pool, or changing worker assignment cannot change it.
    """
    canonical = "{}|{}".format(
        base_seed, sorted((str(k), repr(v)) for k, v in params.items())
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _run_point(payload):
    """Worker body: run one point, isolating its telemetry registry.

    Module-level so the pool can pickle it.  Returns a tagged tuple
    rather than raising: exceptions crossing process boundaries lose
    their tracebacks, so the traceback is stringified here and re-raised
    as :class:`SweepPointError` in the parent.
    """
    runner, params = payload
    _telemetry.reset()
    try:
        result = runner(**params)
    except Exception as exc:  # noqa: BLE001 - re-raised, attributed, in the parent
        return ("error", "{}: {}".format(type(exc).__name__, exc), traceback.format_exc())
    return ("ok", result)


class ParallelSweep:
    """A cartesian sweep of a runner over named parameter axes.

    Example::

        sweep = ParallelSweep(run_one, processes=0, cycle_s=[0.05, 0.5], rpns=[1, 4, 8])
        sweep.run()
        sweep.result(cycle_s=0.5, rpns=8)
        sweep.column("rpns", cycle_s=0.5)   # [(1, r), (4, r), (8, r)]

    Parameters
    ----------
    runner:
        Receives one keyword per axis plus the injected seed parameter.
        It must be module-level (the pool pickles it) unless
        ``processes=0``.
    processes:
        Pool size.  ``0`` runs inline (no pool — bit-identical to what a
        pool of one produces, useful under profilers and debuggers);
        ``None`` uses the machine's CPU count, capped at the grid size.
    base_seed:
        Root of per-point seed derivation.  ``None`` disables seed
        injection (the runner manages its own determinism).
    seed_param:
        Keyword the derived seed is injected under.
    """

    def __init__(
        self,
        runner: Runner,
        processes: Optional[int] = None,
        base_seed: Optional[int] = None,
        seed_param: str = "seed",
        **axes: Sequence[Any],
    ) -> None:
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        for name, values in axes.items():
            if not values:
                raise ValueError("axis {!r} is empty".format(name))
        if processes is not None and processes < 0:
            raise ValueError("processes must be >= 0")
        if base_seed is not None and seed_param in axes:
            raise ValueError(
                "axis {!r} collides with the injected seed parameter".format(seed_param)
            )
        self.runner = runner
        self.axes: Dict[str, List[Any]] = {
            name: list(values) for name, values in axes.items()
        }
        self.points: List[SweepPoint] = []
        self.processes = processes
        self.base_seed = base_seed
        self.seed_param = seed_param

    # -- grid construction --------------------------------------------------

    def grid(self) -> List[Dict[str, Any]]:
        """Every point's parameters in grid (axis) order, seeds included."""
        names = list(self.axes)
        points = []
        for combo in itertools.product(*(self.axes[name] for name in names)):
            params = dict(zip(names, combo))
            if self.base_seed is not None:
                params[self.seed_param] = derive_seed(self.base_seed, params)
            points.append(params)
        return points

    # -- execution -----------------------------------------------------------

    def run(self, progress: Callable[[Dict[str, Any]], None] = None) -> "ParallelSweep":
        """Execute the grid; results merge back in grid order.

        ``progress`` fires once per point *after* it completes and its
        result is merged — so a callback may read ``sweep.points[-1]``
        — in grid order (``imap`` delivers lazily but in input order).
        On a worker failure every earlier grid point's result is already
        in :attr:`points`; the failing point raises
        :class:`SweepPointError`.
        """
        grid = self.grid()
        payloads = [(self.runner, params) for params in grid]
        processes = self.processes
        if processes is None:
            processes = min(len(grid), os.cpu_count() or 1)
        # Inline (processes=0), map() is lazy, so evaluation still
        # interleaves with the merge loop — bit-identical to a pool of
        # one.  Pooled, chunksize=1 keeps worker assignment irrelevant
        # to results: imap yields outcomes in payload order no matter
        # which worker ran what (and lazily, so progress tracks
        # completion), and seeds depend only on the params.
        pool = multiprocessing.Pool(processes=processes) if processes else None
        try:
            if pool is None:
                outcomes = map(_run_point, payloads)
            else:
                outcomes = pool.imap(_run_point, payloads, chunksize=1)
            self.points = []
            for params, outcome in zip(grid, outcomes):
                if outcome[0] == "error":
                    raise SweepPointError(params, outcome[1], outcome[2])
                self.points.append(SweepPoint(params=params, result=outcome[1]))
                if progress is not None:
                    progress(params)
        finally:
            if pool is not None:
                pool.terminate()
        return self

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def _match(self, point: SweepPoint, fixed: Dict[str, Any]) -> bool:
        return all(point.params.get(name) == value for name, value in fixed.items())

    def result(self, **fixed: Any) -> Any:
        """The single result matching ``fixed`` (KeyError if not exactly 1)."""
        matches = [p for p in self.points if self._match(p, fixed)]
        if len(matches) != 1:
            raise KeyError(
                "{} results match {!r}".format(len(matches), fixed)
            )
        return matches[0].result

    def column(self, axis: str, **fixed: Any) -> List[Tuple[Any, Any]]:
        """(axis value, result) pairs along one axis with others fixed."""
        if axis not in self.axes:
            raise KeyError("unknown axis {!r}".format(axis))
        pairs = []
        for point in self.points:
            if self._match(point, fixed):
                pairs.append((point.params[axis], point.result))
        return pairs
