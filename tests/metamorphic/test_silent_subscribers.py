"""Silent subscribers: tenants with zero reservation that never send.

The paper's model says they cost the senders nothing, and the senders'
service is indeed unchanged.  The stronger, byte-identical form does
*not* hold: ``RequestScheduler.run_cycle`` takes its pivot as
``order[cycles % len(order)]`` over every registered id, so a silent id
changes which sender starts the walk in some cycles, and with it the
order of same-instant completions.  The rotation over all registered
subscribers is §3.4's cyclic visit and stays; these tests pin both what
holds and what does not, and that the rotation is the whole cause.
"""

from collections import Counter

import pytest

from repro.core import GageCluster, GageConfig, Subscriber
from repro.harness.golden import accounting_lines
from repro.sim import Environment
from repro.workload import SyntheticWorkload

SENDERS = ("t0", "t1", "t2", "t3")
#: Completed requests per sender at workload seed 3, with or without
#: silent neighbours.
COMPLETED = {"t0": 484, "t1": 486, "t2": 483, "t3": 480}
CASES = pytest.mark.parametrize(
    "silent, before", [(n, b) for n in (1, 7, 100) for b in (False, True)]
)


def build(silent=0, before=False):
    """Four 150-GRPS senders offered 60 pages/s of 6 KB each for 8 s."""
    workload = SyntheticWorkload(
        rates={name: 60.0 for name in SENDERS},
        duration_s=8.0,
        file_bytes=6 * 1024,
        arrival="poisson",
        seed=3,
    )
    senders = [Subscriber(name, 150.0) for name in SENDERS]
    quiet = [Subscriber("quiet{:03d}".format(i), 0.0) for i in range(silent)]
    subscribers = quiet + senders if before else senders + quiet
    cluster = GageCluster(
        Environment(),
        subscribers,
        {
            sub.name: workload.site_files(sub.name) if sub.name in SENDERS else {}
            for sub in subscribers
        },
        num_rpns=4,
        config=GageConfig(spare_policy="none"),
        fidelity="flow",
    )
    cluster.load_trace(workload.generate())
    return cluster


def finish(cluster):
    cluster.run(10.0)
    return cluster


def completed(cluster):
    return dict(Counter(host for _at, host in cluster.completions))


def first_divergence(cluster, reference):
    """Time of the first completion, in order, that differs between runs."""
    pairs = zip(cluster.completions, reference.completions)
    return next(mine[0] for mine, other in pairs if mine != other)


@pytest.fixture(scope="module")
def reference():
    return finish(build())


def test_the_senders_are_served(reference):
    assert completed(reference) == COMPLETED


@CASES
def test_silent_subscribers_leave_completed_counts_unchanged(reference, silent, before):
    assert completed(finish(build(silent, before))) == completed(reference)


@CASES
def test_silent_subscribers_are_not_byte_identical(reference, silent, before):
    cluster = finish(build(silent, before))
    assert accounting_lines(cluster) != accounting_lines(reference)
    # A cycle whose pivot lands on a silent id starts the walk at t0, the
    # sender after that run of silent ids (wrapping round when they come
    # last), so t0 goes first more often than in the reference; the
    # first completion this reorders is at one of these instants.
    expected = 0.0316 if before else 0.0805
    assert first_divergence(cluster, reference) == pytest.approx(expected, abs=1e-4)


@CASES
def test_rotating_over_the_senders_only_restores_byte_identity(
    reference, silent, before
):
    """The probe: give the walk's pivot only the senders to rotate over."""
    cluster = build(silent, before)
    queues = cluster.rdn.queues
    senders = [queues.table.id_of(name) for name in SENDERS]
    queues.sorted_ids = lambda: senders
    assert accounting_lines(finish(cluster)) == accounting_lines(reference)
