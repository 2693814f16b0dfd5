"""A loaded trace costs one heap entry, not one per record — shown by counts.

Figure 3's shape: four backlogged subscribers offered 1.5x their
reservation as Poisson arrivals, eight RPNs, 1 s accounting, spare off.
Scheduling every record up front with one ``call_later`` each put the
whole trace in the heap before the first event (3 473 entries here,
35 205 in the ``sim_flow_fig3`` benchmark); streamed, the trace is one
entry and the heap holds only what the cluster itself has pending.
"""

from repro.core import GageCluster, GageConfig, Subscriber
from repro.sim import Environment
from repro.workload import SyntheticWorkload

PAGE_BYTES = 6 * 1024
GRP_PER_PAGE = 3.07
RESERVATION = 150.0


def test_a_fig3_trace_is_streamed_through_one_heap_entry():
    names = ["site{}".format(i + 1) for i in range(4)]
    workload = SyntheticWorkload(
        rates={name: 1.5 * RESERVATION / GRP_PER_PAGE for name in names},
        duration_s=12.0,
        file_bytes=PAGE_BYTES,
        arrival="poisson",
        seed=12,
    )
    env = Environment()
    cluster = GageCluster(
        env,
        [Subscriber(name, RESERVATION, queue_capacity=256) for name in names],
        {name: workload.site_files(name) for name in names},
        num_rpns=8,
        config=GageConfig(accounting_cycle_s=1.0, spare_policy="none"),
        fidelity="flow",
    )
    records = workload.generate()
    assert len(records) == 3464
    env.step()
    built = env.queue_depth_peak  # the cluster's own processes and timers
    assert built == 9
    cluster.load_trace(records)
    env.step()
    assert env.queue_depth_peak == built + 1

    cluster.run(16.0)
    assert env.queue_depth_peak <= 64
    assert len(cluster.arrivals) == len(records)
    # Streaming changes where the records wait, not how many events run.
    assert env.events_dispatched == 33_495
