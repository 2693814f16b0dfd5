"""Parallel cartesian sweeps over a ``multiprocessing`` pool.

Figure regeneration is embarrassingly parallel — every sweep point is an
independent fixed-seed simulation — so :class:`ParallelSweep` fans the
grid out over worker processes (or runs it inline with ``processes=0``)
while keeping three properties a serial loop would have:

- **Deterministic seeds.**  Each point's seed is derived by hashing the
  base seed together with the point's (sorted) parameters, so it depends
  on *what* the point is, never on which worker ran it or in what order
  points completed.
- **Deterministic merge.**  Results, telemetry snapshots, and recorder
  outputs come back in grid (axis) order regardless of completion order
  — ``Pool.imap(..., chunksize=1)`` preserves input order, and the grid
  is built in ``itertools.product`` order over the axes.
- **Attributable failures.**  A worker that raises doesn't poison the
  pool silently: the failing point's parameters travel back with the
  traceback and surface as a :class:`SweepPointError`.

Runners must be module-level callables (the pool pickles them) and must
take all their randomness from the injected seed parameter.

Callers that run *many* sweeps (the search harness runs hundreds of
small ones) have two reuse mechanisms, both preserving the contract
above exactly:

- :class:`WarmPool` — one long-lived ``multiprocessing.Pool`` shared by
  any number of :class:`ParallelSweep` instances, eliminating the
  fork-and-teardown cost of a fresh pool per ``run()``.
- :class:`EvalMemo` — a cache of point outcomes keyed on the same
  identity hash that derives the point's seed (runner + sorted params,
  which already include the derived seed, + the telemetry flag), so
  re-running an already-evaluated point returns the cached result
  object without touching a worker.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import multiprocessing.pool
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
    runner, params, capture_telemetry = payload
    _telemetry.reset()
    try:
        result = runner(**params)
    except Exception as exc:  # noqa: BLE001 - re-raised, attributed, in the parent
        return ("error", "{}: {}".format(type(exc).__name__, exc), traceback.format_exc())
    snapshot = _telemetry.get_registry().snapshot() if capture_telemetry else None
    return ("ok", result, snapshot)


class WarmPool:
    """One long-lived worker pool shared across many sweep runs.

    A fresh ``multiprocessing.Pool`` per ``run()`` pays process fork and
    teardown every sweep — dominant when the sweeps themselves are short
    (the search harness runs hundreds of 4-point grids).  A ``WarmPool``
    forks once, lazily on first use, and every :class:`ParallelSweep`
    handed it dispatches through the same workers.  Results are
    bit-identical to a fresh pool: seeds derive from point identity and
    ``imap(..., chunksize=1)`` merges in input order, so worker reuse
    is unobservable.

    Use as a context manager, or call :meth:`close` when done::

        with WarmPool(processes=4) as pool:
            for grid in grids:
                ParallelSweep(run_one, pool=pool, **grid).run()
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        if processes is not None and processes < 1:
            raise ValueError("a warm pool needs at least one process")
        self._requested = processes
        self._pool: Optional[multiprocessing.pool.Pool] = None

    @property
    def processes(self) -> int:
        """Worker count the pool has (or will be created with)."""
        return self._requested or (os.cpu_count() or 1)

    def imap(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> Iterator[Any]:
        """Lazily map ``fn`` over ``payloads`` in input order."""
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.processes)
        return self._pool.imap(fn, payloads, chunksize=1)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class EvalMemo:
    """A cache of sweep-point outcomes keyed on point identity.

    The key hashes the runner's identity and the point's sorted
    parameters — which, under seed injection, already include the
    derived seed — plus the telemetry-capture flag.  Because a point's
    result is a pure function of exactly those inputs (the determinism
    contract), a hit can return the stored outcome object as-is:
    byte-identical, same object identity, no worker involved.

    Only successful outcomes are stored; a failing point re-runs every
    time (its error may be environmental).  ``hits``/``misses`` count
    lookups for observability.
    """

    def __init__(self) -> None:
        self._store: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @staticmethod
    def key_for(runner: Runner, params: Dict[str, Any], capture_telemetry: bool) -> str:
        """The identity hash of one evaluation (hex sha256)."""
        canonical = "{}.{}|{}|{}".format(
            getattr(runner, "__module__", "?"),
            getattr(runner, "__qualname__", repr(runner)),
            sorted((str(k), repr(v)) for k, v in params.items()),
            bool(capture_telemetry),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, key: str) -> Optional[Any]:
        """The stored outcome for ``key``, or None (counted either way)."""
        outcome = self._store.get(key)
        if outcome is None:
            self.misses += 1
        else:
            self.hits += 1
        return outcome

    def put(self, key: str, outcome: Any) -> None:
        self._store[key] = outcome


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
    capture_telemetry:
        When True, each worker's metric-registry snapshot for its point
        is collected into :attr:`telemetry` (grid order).
    pool:
        A :class:`WarmPool` to dispatch through instead of creating (and
        tearing down) a fresh pool inside ``run()``.  Mutually exclusive
        with ``processes``.
    memo:
        An :class:`EvalMemo`; already-evaluated points are served from
        it and fresh successful outcomes are stored into it.
    """

    def __init__(
        self,
        runner: Runner,
        processes: Optional[int] = None,
        base_seed: Optional[int] = None,
        seed_param: str = "seed",
        capture_telemetry: bool = False,
        pool: Optional[WarmPool] = None,
        memo: Optional[EvalMemo] = None,
        **axes: Sequence[Any],
    ) -> None:
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        for name, values in axes.items():
            if not values:
                raise ValueError("axis {!r} is empty".format(name))
        if processes is not None and processes < 0:
            raise ValueError("processes must be >= 0")
        if pool is not None and processes is not None:
            raise ValueError("pass either a warm pool or a process count, not both")
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
        self.capture_telemetry = capture_telemetry
        self.pool = pool
        self.memo = memo
        #: Per-point telemetry snapshots in grid order (when captured).
        self.telemetry: List[Optional[Dict[str, object]]] = []

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

        # Serve memo hits without touching a worker; only misses become
        # payloads.  The memo key covers runner + params (seed included)
        # + the telemetry flag — everything an outcome is a function of.
        keys: List[Optional[str]] = []
        cached: List[Optional[Any]] = []
        pending = []
        for params in grid:
            key = None
            outcome = None
            if self.memo is not None:
                key = EvalMemo.key_for(self.runner, params, self.capture_telemetry)
                outcome = self.memo.get(key)
            keys.append(key)
            cached.append(outcome)
            if outcome is None:
                pending.append((self.runner, params, self.capture_telemetry))

        # chunksize=1 keeps worker assignment irrelevant to results:
        # imap yields outcomes in payload order no matter which worker
        # ran what (and lazily, so progress tracks completion), and
        # seeds depend only on the params.
        processes = self.processes
        if processes is None and self.pool is None:
            processes = min(len(pending), os.cpu_count() or 1)

        def consume(fresh: Iterator[Any]) -> None:
            self.points = []
            self.telemetry = []
            for params, key, hit in zip(grid, keys, cached):
                outcome = hit if hit is not None else next(fresh)
                if outcome[0] == "error":
                    raise SweepPointError(params, outcome[1], outcome[2])
                if hit is None and self.memo is not None and key is not None:
                    self.memo.put(key, outcome)
                self.points.append(SweepPoint(params=params, result=outcome[1]))
                self.telemetry.append(outcome[2])
                if progress is not None:
                    progress(params)

        if not pending:
            consume(iter(()))
        elif self.pool is not None:
            consume(self.pool.imap(_run_point, pending))
        elif processes == 0:
            # Inline: map() is lazy, so evaluation still interleaves
            # with the merge loop — bit-identical to a pool of one.
            consume(map(_run_point, pending))
        else:
            with multiprocessing.Pool(processes=processes) as fresh_pool:
                consume(fresh_pool.imap(_run_point, pending, chunksize=1))
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
