"""What hosting a site costs a node: per-node state only.

A site's document tree and names are identical on every RPN, so the
cluster keeps one catalog and one copy of each name; the process
subtree, the worker slots and the buffer cache stay per node.
"""

import gc

import pytest

from repro.cluster import FileSystem, Machine, WebServer
from repro.cluster.procs import SimProcess
from repro.cluster.webserver import Site
from repro.core import GageCluster, Subscriber
from repro.sim import Environment
from repro.sim.resources import Resource
from repro.workload import WebRequest

FILES = {"index.html": 2000, "about.html": 4000}


def make_cluster(fidelity, num_rpns=3):
    names = ["a.example.com", "b.example.com"]
    return GageCluster(
        Environment(),
        [Subscriber(name, 10.0) for name in names],
        {name: FILES for name in names},
        num_rpns=num_rpns,
        fidelity=fidelity,
        workers_per_site=2,
    )


@pytest.mark.parametrize("fidelity", ["flow", "packet"])
def test_every_rpn_shares_one_catalog_holding_each_tree_once(fidelity):
    cluster = make_cluster(fidelity)
    assert all(machine.fs is cluster.fs for machine in cluster.machines)
    assert len(cluster.fs) == 2 * len(FILES)
    assert cluster.fs.size_of("/sites/b.example.com/about.html") == 4000


@pytest.mark.parametrize("fidelity", ["flow", "packet"])
def test_a_sites_names_are_one_object_on_every_node(fidelity):
    cluster = make_cluster(fidelity)
    first, *rest = [server.sites["a.example.com"] for server in cluster.webservers]
    for site in rest:
        assert site.docroot is first.docroot
        assert site.master.name is first.master.name
        for worker, first_worker in zip(site.worker_procs, first.worker_procs):
            assert worker.name is first_worker.name
    # ... while the process subtree and the worker slots stay per node.
    assert all(site.master is not first.master for site in rest)
    assert all(site.workers is not first.workers for site in rest)


def test_a_joining_subscribers_tree_is_registered_once_for_every_node():
    cluster = make_cluster("flow")
    cluster.add_subscriber(Subscriber("c.example.com", 10.0), files={"new.html": 512})
    assert len(cluster.fs) == 2 * len(FILES) + 1
    assert all("c.example.com" in server.sites for server in cluster.webservers)
    assert cluster.fs.size_of("/sites/c.example.com/new.html") == 512


def test_hosting_records_carry_no_instance_dict():
    env = Environment()
    server = WebServer(Machine(env, "rpn0"))
    site = server.host_site("a.example.com", files=FILES)
    for record, kind in [(site, Site), (site.master, SimProcess), (site.workers, Resource)]:
        assert type(record) is kind
        assert not hasattr(record, "__dict__")


def test_a_node_not_hosting_a_site_answers_404_though_the_catalog_lists_it():
    env = Environment()
    fs = FileSystem()
    hosting = WebServer(Machine(env, "rpn0", fs=fs))
    other = WebServer(Machine(env, "rpn1", fs=fs))
    hosting.host_site("a.example.com", files=FILES)
    other.host_site("b.example.com")
    completions = []
    other.on_complete.append(lambda *args: completions.append(args))
    assert "/sites/a.example.com/index.html" in other.machine.fs

    request = WebRequest(host="a.example.com", path="/index.html", size_bytes=2000)
    response = env.run(until=env.process(other.service_request(request)))

    assert response.status == 404
    assert set(other.sites) == {"b.example.com"}
    assert completions == []  # unattributable: no site on this node to charge
    assert other.machine.procs.total_usage().cpu_s == 0.0
    assert other.machine.disk.io_count == 0
    served = env.run(until=env.process(hosting.service_request(request)))
    assert served.status == 200


#: gc-tracked objects one more (site, node) hosting adds with one worker:
#: the site record, its worker ``Resource`` with its two queues, the
#: worker list, and the master and worker processes with a child list
#: each.  The count sets how often the collector runs, and with it the
#: collections inside a timed run (one full collection on
#: ``sim_flow_many_subs`` costs a large share of that run), so a change
#: that moves this pin needs a ``req_per_s`` A/B on ``sim_flow_many_subs``
#: beside it.
TRACKED_PER_HOSTING = 9


def test_one_more_hosting_adds_an_exact_number_of_tracked_objects():
    env = Environment()
    server = WebServer(Machine(env, "rpn0", fs=FileSystem()), workers_per_site=1)
    server.host_site("warm-up.example.com", files=FILES)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        server.host_site("a.example.com")
        added = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert added == TRACKED_PER_HOSTING
