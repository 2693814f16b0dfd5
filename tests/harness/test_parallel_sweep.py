"""ParallelSweep: pool-of-1 == serial, assignment-independent seeds,
attributable worker failures, and per-completion progress reporting."""

import random

import pytest

from repro.harness.parallel import (
    ParallelSweep,
    SweepPointError,
    derive_seed,
)


# -- runners (module-level: the pool pickles them) ------------------------


def seeded_sum(rate, size, seed):
    """A deterministic stand-in for a simulation: params + seeded RNG."""
    rng = random.Random(seed)
    return {
        "rate": rate,
        "size": size,
        "seed": seed,
        "draw": rng.random(),
    }


def mini_simulation(rate, seed):
    """Drive a tiny real simulation so the engine path is exercised too."""
    from repro.sim import Environment

    env = Environment()
    rng = random.Random(seed)
    ticks = []
    env.call_later(0.0, lambda: None)

    def arrival_chain(t):
        ticks.append(round(t, 9))
        if t < 1.0:
            env.call_later(rng.expovariate(rate), arrival_chain, env.now)

    env.call_later(0.0, arrival_chain, 0.0)
    env.run(until=2.0)
    return (len(ticks), sum(ticks))


def boom(rate, seed):
    if rate == 13:
        raise ValueError("unlucky rate")
    return rate


# -- seed derivation -------------------------------------------------------


def test_derived_seed_depends_only_on_point_identity():
    a = derive_seed(7, {"rate": 50, "size": 4})
    # Key order must not matter...
    b = derive_seed(7, {"size": 4, "rate": 50})
    assert a == b
    # ...but the base seed and every param value must.
    assert derive_seed(8, {"rate": 50, "size": 4}) != a
    assert derive_seed(7, {"rate": 51, "size": 4}) != a


def test_grid_is_axis_ordered_with_injected_seeds():
    sweep = ParallelSweep(seeded_sum, base_seed=3, rate=[1, 2], size=[10])
    grid = sweep.grid()
    assert [(p["rate"], p["size"]) for p in grid] == [(1, 10), (2, 10)]
    assert all("seed" in p for p in grid)
    assert grid[0]["seed"] != grid[1]["seed"]


def test_seed_axis_collision_rejected():
    with pytest.raises(ValueError):
        ParallelSweep(seeded_sum, base_seed=1, seed=[1, 2], rate=[1])


# -- pool-of-1 == serial ---------------------------------------------------


def test_pool_of_one_equals_serial_exactly():
    kwargs = dict(base_seed=11, rate=[10.0, 50.0], size=[1, 2, 3])
    serial = ParallelSweep(seeded_sum, processes=0, **kwargs).run()
    pooled = ParallelSweep(seeded_sum, processes=1, **kwargs).run()
    assert [p.params for p in serial.points] == [p.params for p in pooled.points]
    assert [p.result for p in serial.points] == [p.result for p in pooled.points]


def test_pool_of_one_equals_serial_for_real_engine_runs():
    kwargs = dict(base_seed=5, rate=[40.0, 80.0])
    serial = ParallelSweep(mini_simulation, processes=0, **kwargs).run()
    pooled = ParallelSweep(mini_simulation, processes=1, **kwargs).run()
    assert [p.result for p in serial.points] == [p.result for p in pooled.points]


# -- worker-assignment independence ---------------------------------------


def test_results_independent_of_pool_size():
    kwargs = dict(base_seed=23, rate=[1, 2, 3, 4, 5], size=[7])
    one = ParallelSweep(seeded_sum, processes=1, **kwargs).run()
    two = ParallelSweep(seeded_sum, processes=2, **kwargs).run()
    assert [p.result for p in one.points] == [p.result for p in two.points]
    # The seeds each point received are embedded in its result: identical
    # seeds across pool sizes proves derivation ignores worker assignment.
    assert [p.result["seed"] for p in one.points] == [
        p.result["seed"] for p in two.points
    ]


# -- failure attribution ---------------------------------------------------


def test_crashing_worker_surfaces_the_failing_point():
    sweep = ParallelSweep(boom, processes=2, base_seed=1, rate=[12, 13, 14])
    with pytest.raises(SweepPointError) as excinfo:
        sweep.run()
    assert excinfo.value.params["rate"] == 13
    assert "unlucky rate" in str(excinfo.value)
    assert "ValueError" in excinfo.value.cause


# -- queries inherited from Sweep ------------------------------------------


def test_inherited_queries_work_on_merged_results():
    sweep = ParallelSweep(
        seeded_sum, processes=0, base_seed=2, rate=[1, 2], size=[5, 6]
    ).run()
    assert sweep.result(rate=2, size=6)["rate"] == 2
    column = sweep.column("rate", size=5)
    assert [value for value, _ in column] == [1, 2]


# -- per-completion progress ------------------------------------------------


def test_progress_fires_after_each_completion_not_up_front():
    seen = []

    def observe(params):
        # By the time the callback fires, the point's result is merged:
        # a callback fired before evaluation would see points empty here.
        assert sweep.points[-1].params == params
        seen.append((params["rate"], params["size"], len(sweep.points)))

    sweep = ParallelSweep(seeded_sum, processes=2, base_seed=4, rate=[1.0, 2.0], size=[3])
    sweep.run(progress=observe)
    assert seen == [(1.0, 3, 1), (2.0, 3, 2)]


def test_progress_fires_in_grid_order_inline():
    order = []
    sweep = ParallelSweep(seeded_sum, processes=0, base_seed=6, rate=[1, 2, 3], size=[1])
    sweep.run(progress=lambda p: order.append(p["rate"]))
    assert order == [1, 2, 3]
