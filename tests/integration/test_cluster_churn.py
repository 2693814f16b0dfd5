"""End-to-end subscriber churn through the full simulated data plane.

`GageCluster.add_subscriber` must make a mid-run join *servable* —
hosting the site on every RPN before registering — and `remove_subscriber`
must stop the control plane cleanly.  These pin the failure mode churn
originally exposed: a registered-but-unhosted subscriber's requests were
answered as unattributable 404s whose dispatch-time predictions were
never backed out, so the node's outstanding-load estimate grew without
bound and starved every other subscriber placed there.
"""

import dataclasses

import pytest

from repro.core import GageCluster, PlacementEngine, Subscriber
from repro.sim import Environment
from repro.workload import SyntheticWorkload


def _shifted(records, offset_s):
    return [dataclasses.replace(r, at_s=r.at_s + offset_s) for r in records]


def build_cluster(env, subscribers, rates, duration=6.0, num_rpns=4, placement=None,
                  extra_sites=()):
    workload = SyntheticWorkload(rates=rates, duration_s=duration, file_bytes=2000)
    hosts = list(rates) + list(extra_sites)
    site_files = {name: workload.site_files(name) for name in hosts}
    cluster = GageCluster(
        env, subscribers, site_files, num_rpns=num_rpns, placement=placement,
        fidelity="flow",
    )
    cluster.load_trace(workload.generate())
    return cluster, site_files


def test_mid_run_join_is_served_end_to_end():
    env = Environment()
    subs = [Subscriber("early", reservation_grps=80, queue_capacity=256)]
    cluster, site_files = build_cluster(
        env, subs, {"early": 60.0}, duration=6.0, extra_sites=("late",)
    )
    cluster.run(2.0)

    late = Subscriber("late", reservation_grps=60, queue_capacity=256)
    cluster.add_subscriber(late, files=site_files["late"])
    late_load = SyntheticWorkload(rates={"late": 50.0}, duration_s=4.0, file_bytes=2000)
    cluster.load_trace(_shifted(late_load.generate(), 2.0))
    cluster.run(6.0)

    report = cluster.service_report("late", 3.0, 6.0)
    assert report.served_rate == pytest.approx(50.0, rel=0.1)
    assert report.dropped == 0


def test_mid_run_join_does_not_starve_colocated_subscriber():
    """The regression: with placement restricting dispatch to one node, a
    joiner sharing that node must not poison its outstanding-load window."""
    env = Environment()
    placement = PlacementEngine(k_backup=1)
    subs = [
        Subscriber("gold", reservation_grps=80, queue_capacity=256),
        Subscriber("silver", reservation_grps=60, queue_capacity=256),
    ]
    cluster, site_files = build_cluster(
        env, subs, {"gold": 75.0, "silver": 55.0}, duration=8.0,
        placement=placement, extra_sites=("late",)
    )
    cluster.run(2.0)

    late = Subscriber("late", reservation_grps=40, queue_capacity=256)
    cluster.add_subscriber(late, files=site_files["late"])
    assert cluster.rdn.placement is placement
    assert len(placement.allowed_nodes("late")) == 1
    late_load = SyntheticWorkload(rates={"late": 35.0}, duration_s=6.0, file_bytes=2000)
    cluster.load_trace(_shifted(late_load.generate(), 2.0))
    cluster.run(8.0)

    # Utilization packing co-locates late with an existing subscriber;
    # everyone within reservation must still be fully served.
    for name, rate in (("gold", 75.0), ("silver", 55.0), ("late", 35.0)):
        report = cluster.service_report(name, 4.0, 8.0)
        assert report.served_rate == pytest.approx(rate, rel=0.1), name


def test_duplicate_join_rejected():
    env = Environment()
    subs = [Subscriber("a", reservation_grps=50)]
    cluster, _ = build_cluster(env, subs, {"a": 10.0}, duration=1.0)
    with pytest.raises(ValueError):
        cluster.add_subscriber(Subscriber("a", reservation_grps=50))


def test_mid_run_leave_stops_scheduling():
    env = Environment()
    subs = [
        Subscriber("stays", reservation_grps=80, queue_capacity=256),
        Subscriber("leaves", reservation_grps=80, queue_capacity=256),
    ]
    cluster, _ = build_cluster(
        env, subs, {"stays": 60.0, "leaves": 60.0}, duration=6.0
    )
    cluster.run(2.0)
    cluster.remove_subscriber("leaves")
    cluster.run(6.0)

    stays = cluster.service_report("stays", 3.0, 6.0)
    assert stays.served_rate == pytest.approx(60.0, rel=0.1)
    # Post-leave arrivals for the departed name are refused at the RDN.
    refused = sum(
        1 for at, host, ok in cluster.arrivals
        if host == "leaves" and at >= 3.0 and not ok
    )
    assert refused > 0
    served_after = sum(
        1 for at, host in cluster.completions if host == "leaves" and at >= 4.0
    )
    assert served_after == 0


def test_missing_file_404_backs_out_prediction():
    """An error page is an answered request: the node's outstanding-load
    window must drain back to zero, not leak one prediction per 404."""
    env = Environment()
    subs = [Subscriber("a", reservation_grps=80, queue_capacity=256)]
    workload = SyntheticWorkload(rates={"a": 40.0}, duration_s=4.0, file_bytes=2000)
    site_files = {"a": workload.site_files("a")}
    cluster = GageCluster(env, subs, site_files, num_rpns=2, fidelity="flow")
    # Every request names a file outside the hosted tree -> pure-404 load.
    records = [dataclasses.replace(r, path="/no-such-file.html")
               for r in workload.generate()]
    cluster.load_trace(records)
    cluster.run(6.0)

    total_errors = sum(site.errors for server in cluster.webservers
                      for site in server.sites.values())
    total_completed = sum(site.completed for server in cluster.webservers
                         for site in server.sites.values())
    assert total_errors > 100
    assert total_completed == total_errors
    # With every 404 reported complete, the predictions all came back.
    for status in cluster.rdn.node_scheduler.nodes():
        assert status.outstanding.dominant_fraction_of(status.capacity_per_s) \
            == pytest.approx(0.0, abs=0.05)
