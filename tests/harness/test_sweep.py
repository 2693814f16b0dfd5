"""Tests for inline (``processes=0``) cartesian sweeps."""

import pytest

from repro.harness.parallel import ParallelSweep


def test_sweep_runs_cartesian_product():
    calls = []

    def runner(a, b):
        calls.append((a, b))
        return a * b

    sweep = ParallelSweep(runner, processes=0, a=[1, 2], b=[10, 20, 30]).run()
    assert len(sweep) == 6
    assert calls == [(1, 10), (1, 20), (1, 30), (2, 10), (2, 20), (2, 30)]


def test_result_lookup():
    sweep = ParallelSweep(lambda a, b: a + b, processes=0, a=[1, 2], b=[10, 20]).run()
    assert sweep.result(a=2, b=10) == 12
    with pytest.raises(KeyError):
        sweep.result(a=1)  # two matches
    with pytest.raises(KeyError):
        sweep.result(a=9, b=9)  # zero matches


def test_column_extraction():
    sweep = ParallelSweep(lambda a, b: a * b, processes=0, a=[1, 2, 3], b=[10, 20]).run()
    column = sweep.column("a", b=20)
    assert column == [(1, 20), (2, 40), (3, 60)]
    with pytest.raises(KeyError):
        sweep.column("nope")


def test_progress_callback():
    seen = []
    ParallelSweep(lambda a: a, processes=0, a=[1, 2, 3]).run(
        progress=lambda p: seen.append(p["a"])
    )
    assert seen == [1, 2, 3]


def test_validation():
    with pytest.raises(ValueError):
        ParallelSweep(lambda: None, processes=0)
    with pytest.raises(ValueError):
        ParallelSweep(lambda a: a, processes=0, a=[])


def test_sweep_with_simulation_runner():
    """A miniature version of the Fig-3 grid, via the sweep utility."""
    from repro.harness import run_deviation_experiment

    def runner(cycle_s):
        curve = run_deviation_experiment(
            cycle_s, intervals_s=[1.0], duration_s=8.0,
            num_rpns=2, num_subscribers=2, reservation_grps=80.0,
        )
        return curve.by_interval[1.0]

    sweep = ParallelSweep(runner, processes=0, cycle_s=[0.1, 2.0]).run()
    assert sweep.result(cycle_s=2.0) > sweep.result(cycle_s=0.1)
