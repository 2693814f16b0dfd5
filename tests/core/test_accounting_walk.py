"""The §3.5 walk over touched sites ≡ the walk over every site.

The accounting agent sums only the subtrees of sites a request entered
since the last walk.  These tests run the paper's loop — every site,
every cycle — beside it at the same instants and require identical
messages: keys, order, usage, completions.
"""

import pytest

from repro.cluster import Machine, WebServer
from repro.cluster.procs import SimProcess
from repro.core import GageCluster, GageConfig, RPNAccountingAgent, Subscriber
from repro.core.feedback import RPNUsageReport
from repro.faults import CRASH, RESTART, SLOW, FaultAction, FaultSchedule
from repro.resources import ResourceVector
from repro.sim import Environment
from repro.workload import SyntheticWorkload, WebRequest
from repro.workload.request import RequestRecord


class FullWalk:
    """Shadows one agent with the every-site walk and compares each message."""

    def __init__(self, agent):
        self.agent = agent
        self.usage = {}
        self.completed = {}
        self.messages = []
        self.resyncs = 0
        self._collect, self._resync = agent.collect, agent.resync
        agent.collect, agent.resync = self.collect, self.resync

    def walk(self):
        server = self.agent.webserver
        server.machine.settle_accounting()
        report = {}
        for host, site in server.sites.items():
            usage = site.master.subtree_usage()
            delta = usage - self.usage.get(host, ResourceVector.ZERO)
            completed = site.completed - self.completed.get(host, 0)
            self.usage[host], self.completed[host] = usage, site.completed
            if completed > 0 or delta != ResourceVector.ZERO:
                report[host] = RPNUsageReport(delta, completed)
        return report

    def collect(self):
        expected = self.walk()
        message = self._collect()
        assert list(message.per_subscriber.items()) == list(expected.items())
        total = ResourceVector.ZERO
        for report in expected.values():
            total = total + report.usage
        assert message.total_usage == total
        self.messages.append(message)
        return message

    def resync(self):
        self.walk()  # a restart re-baselines every site and reports nothing
        self.resyncs += 1
        self._resync()


def run_shadowed(fidelity):
    """CGI, a 404, hedge clones cancelled mid-service, a crash and restart."""
    names = ["static", "cgi", "flaky"] + ["idle{}".format(i) for i in range(5)]
    workload = SyntheticWorkload(
        rates={"static": 60.0, "flaky": 20.0}, duration_s=4.0, file_bytes=2048, seed=5
    )
    records = list(workload.generate())
    at = 0.05
    while at < 4.0:
        records.append(RequestRecord(at, "cgi", "/cgi/app", 1000, cpu_extra_s=0.03))
        records.append(RequestRecord(at + 0.01, "flaky", "/no-such-page", 500))
        at += 0.11
    records.sort(key=lambda record: record.at_s)
    files = {name: {} for name in names}
    files["static"] = workload.site_files("static")
    files["flaky"] = workload.site_files("flaky")
    cluster = GageCluster(
        Environment(),
        [Subscriber(name, 80.0, queue_capacity=512) for name in names],
        files,
        num_rpns=3,
        config=GageConfig(
            accounting_cycle_s=0.1,
            hedge_policy="fixed" if fidelity == "flow" else "off",
            hedge_delay_s=0.03,
        ),
        fidelity=fidelity,
    )
    shadows = [FullWalk(agent) for agent in cluster.agents]
    cluster.install_faults(
        FaultSchedule(
            [
                FaultAction(at_s=0.5, kind=SLOW, target="rpn0", factor=0.1),
                FaultAction(at_s=1.2, kind=CRASH, target="rpn1"),
                FaultAction(at_s=2.2, kind=RESTART, target="rpn1"),
            ]
        )
    )
    cluster.load_trace(records)
    cluster.run(5.0)
    return cluster, shadows


@pytest.mark.parametrize("fidelity", ["flow", "packet"])
def test_touched_walk_reports_what_the_full_walk_reports(fidelity):
    cluster, shadows = run_shadowed(fidelity)
    # Every message was compared as it was built; make sure the run
    # exercised what it was built to exercise.
    reported = set()
    for shadow in shadows:
        assert shadow.messages
        for message in shadow.messages:
            reported.update(message.per_subscriber)
    assert reported == {"static", "cgi", "flaky"}
    assert sum(shadow.resyncs for shadow in shadows) == 1
    sites = [server.sites for server in cluster.webservers]
    assert sum(site["flaky"].errors for site in sites) > 0  # the 404s
    assert sum(site["cgi"].completed for site in sites) > 0
    if fidelity == "flow":
        assert cluster.rdn.hedges._tm_cancelled.value > 0
    # The idle sites were never walked after the run began.
    for server in cluster.webservers:
        assert not any(name.startswith("idle") for name in server._touched)


def test_request_spanning_two_walks_is_reported_in_both():
    env = Environment()
    server = WebServer(Machine(env, "rpn0"))
    server.host_site("quiet")
    server.host_site("busy")
    messages = []
    RPNAccountingAgent(env, "rpn0", server, cycle_s=0.1, send_fn=messages.append)
    # 250 ms of CGI CPU: in service across the walks at 0.1 s and 0.2 s.
    env.process(
        server.service_request(WebRequest("busy", "/cgi/slow", 100, cpu_extra_s=0.25))
    )
    env.run(until=0.45)
    reports = [message.per_subscriber for message in messages]
    assert [list(report) for report in reports] == [["busy"], ["busy"], ["busy"], []]
    assert [r["busy"].completed for r in reports[:3]] == [0, 0, 1]
    assert all(r["busy"].usage.cpu_s > 0 for r in reports[:3])
    assert server.take_touched() == []


def test_error_page_sent_across_a_walk_still_reports_its_completion():
    """A hosted-site 404 completes only once its page is sent."""

    class SlowConnection:
        def send(self, _nbytes, payload=None):
            return env.timeout(0.15)  # still sending at the 0.1 s walk

    env = Environment()
    server = WebServer(Machine(env, "rpn0"))
    server.host_site("site", files={"x.html": 100})
    messages = []
    RPNAccountingAgent(env, "rpn0", server, cycle_s=0.1, send_fn=messages.append)
    env.process(
        server.service_request(WebRequest("site", "/missing", 100), SlowConnection())
    )
    env.run(until=0.35)
    completed = [
        message.per_subscriber["site"].completed
        for message in messages
        if "site" in message.per_subscriber
    ]
    assert completed == [1]


def test_idle_sites_are_not_walked(monkeypatch):
    """Cost is O(touched): no request, no subtree sum."""
    env = Environment()
    server = WebServer(Machine(env, "rpn0"))
    for index in range(50):
        server.host_site("site{}".format(index))
    messages = []
    RPNAccountingAgent(env, "rpn0", server, cycle_s=0.1, send_fn=messages.append)
    calls = []
    real = SimProcess.subtree_usage
    monkeypatch.setattr(
        SimProcess, "subtree_usage", lambda self: calls.append(self.name) or real(self)
    )
    env.process(server.service_request(WebRequest("site7", "/cgi/x", 100, cpu_extra_s=0.01)))
    env.run(until=0.55)
    assert calls == ["httpd[site7]"]
    assert [list(m.per_subscriber) for m in messages] == [["site7"], [], [], [], []]
