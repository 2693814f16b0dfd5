"""Fig. 3's request path, held to a Python call budget.

The benchmark's ``sim_flow_fig3`` shape, built here from ``src/``: 8
RPNs, four 150-GRPS subscribers offered 1.5x their reservation in 6 KB
Poisson pages (workload seed 12), queue 256, spare ``none``, 1 s
accounting, a 64 MB cache, run for 10 simulated seconds under
:mod:`cProfile`.  Call counts are exact for a tree and a scenario, so
they resolve where host time cannot.

The ceiling of 320 calls per completed request was set from measurement:
the vector-building dispatch, the per-slice CPU charge and the clock
property made 365.6, the present path makes 302.5 (302.5–302.6 over
eight ``PYTHONHASHSEED`` values), and the ceiling leaves room for that
spread and little else.  It moves only with a measured reason, recorded
with the change that moves it.
"""

import cProfile
import os
import pstats

from repro.core import GageCluster, GageConfig, Subscriber
from repro.sim import Environment
from repro.workload import SyntheticWorkload

#: Engine events of the 10 s run; the call savings must not move it.
EVENTS = 22_182
CALLS_PER_REQUEST_CEILING = 320.0


def build():
    names = ["site{}".format(i + 1) for i in range(4)]
    rate = 1.5 * 150.0 / 3.07  # 1.5x the reservation, in 6 KB pages
    workload = SyntheticWorkload(
        rates={name: rate for name in names},
        duration_s=10.0,
        file_bytes=6 * 1024,
        arrival="poisson",
        seed=12,
    )
    cluster = GageCluster(
        Environment(),
        [Subscriber(name, 150.0, queue_capacity=256) for name in names],
        {name: workload.site_files(name) for name in names},
        num_rpns=8,
        config=GageConfig(accounting_cycle_s=1.0, spare_policy="none"),
        fidelity="flow",
        rpn_cache_bytes=64 * 1024 * 1024,
    )
    cluster.load_trace(workload.generate())
    return cluster


def calls_from(stats, callee, caller):
    """Calls of ``callee`` made directly by ``caller``; each is (file, name)."""
    total = 0
    for (path, _line, name), (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        if (os.path.basename(path), name) != callee:
            continue
        for (caller_path, _l, caller_name), counts in callers.items():
            if (os.path.basename(caller_path), caller_name) == caller:
                total += counts[1]
    return total


def test_fig3_request_path_stays_inside_its_call_budget():
    cluster = build()
    profiler = cProfile.Profile()
    profiler.enable()
    cluster.run(10.0)
    profiler.disable()
    stats = pstats.Stats(profiler)
    completed = len(cluster.completions)

    assert cluster.env.events_dispatched == EVENTS
    # The burst replay charges each 1 ms slice in place.
    assert calls_from(stats, ("procs.py", "charge_cpu"), ("cpu.py", "_replay_until")) == 0
    # The least-load pick builds no sum vector and recomputes no memoised load.
    pick = ("node_scheduler.py", "pick")
    assert calls_from(stats, ("resources.py", "dominant_fraction_of"), pick) == 0
    assert calls_from(stats, ("resources.py", "__add__"), pick) == 0
    assert stats.total_calls / completed <= CALLS_PER_REQUEST_CEILING
