"""Tests for trace file I/O and the open-loop client fleet."""

import pytest

from repro.workload import SyntheticWorkload, load_trace, save_trace
from repro.workload.request import RequestRecord


def test_trace_roundtrip(tmp_path):
    workload = SyntheticWorkload(rates={"a": 25.0, "b": 10.0}, duration_s=2.0)
    records = workload.generate()
    path = tmp_path / "trace.tsv"
    written = save_trace(records, path)
    assert written == len(records)
    loaded = load_trace(path)
    assert len(loaded) == len(records)
    for original, back in zip(records, loaded):
        assert back.at_s == pytest.approx(original.at_s, abs=1e-6)
        assert back.host == original.host
        assert back.path == original.path
        assert back.size_bytes == original.size_bytes


def test_trace_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("# a comment\n\n1.5\thost\t/x\t100\t0.0\n")
    records = load_trace(path)
    assert len(records) == 1
    assert records[0].host == "host"


def test_trace_rejects_malformed_lines(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("not\tenough\tfields\n")
    with pytest.raises(ValueError):
        load_trace(path)


def test_client_fleet_requires_stacks():
    from repro.net import IPAddress
    from repro.sim import Environment
    from repro.workload import ClientFleet

    with pytest.raises(ValueError):
        ClientFleet(Environment(), [], IPAddress("10.0.0.100"))


def test_client_fleet_round_robins_stacks():
    """Records are spread across client hosts in rotation."""
    from repro.core import GageCluster, Subscriber
    from repro.sim import Environment

    env = Environment()
    workload = SyntheticWorkload(rates={"a": 20.0}, duration_s=1.0, file_bytes=2000)
    cluster = GageCluster(
        env,
        [Subscriber("a", 100)],
        {"a": workload.site_files("a")},
        num_rpns=1,
        fidelity="packet",
        num_clients=2,
    )
    cluster.load_trace(workload.generate())
    cluster.run(2.0)
    per_stack = [len(s._conns) + s._next_port - 10000 for s in cluster.fleet.stacks]
    # Each stack issued about half of the 19 requests.
    assert abs(per_stack[0] - per_stack[1]) <= 1
    assert cluster.fleet.stats.completed == cluster.fleet.stats.issued


def test_client_stats_latency_math():
    from repro.workload.client import ClientStats

    stats = ClientStats()
    assert stats.mean_latency_s == 0.0
    stats.latencies_s.extend([0.1, 0.3])
    assert stats.mean_latency_s == pytest.approx(0.2)
    stats.completed = 10
    assert stats.completed_rate(5.0) == pytest.approx(2.0)
    assert stats.completed_rate(0.0) == 0.0


def test_client_fleet_timeout_aborts_unanswered_connects():
    """A SYN into the void times out and counts as failed."""
    from repro.net import IPAddress, MACAddress, NIC, Switch
    from repro.net.tcp import HostStack
    from repro.sim import Environment
    from repro.workload import ClientFleet

    env = Environment()
    switch = Switch(env, ports=4)
    nic = NIC(env, MACAddress("02:00:00:00:00:01"), name="c0")
    switch.attach(nic.iface)
    stack = HostStack(env, IPAddress("10.0.0.1"), nic, retransmit=False)
    fleet = ClientFleet(
        env, [stack], IPAddress("10.0.0.99"), request_timeout_s=0.5
    )
    fleet.run_trace([RequestRecord(0.1, "a", "/x", 100)])
    env.run(until=2.0)
    assert fleet.stats.failed == 1
    assert fleet.stats.completed == 0


def test_an_unanswered_connect_fails_exactly_one_timeout_after_its_issue():
    """Released or not, every deadline that is due fires at issue + timeout."""
    from repro.net import IPAddress, MACAddress, NIC, Switch
    from repro.net.tcp import HostStack
    from repro.sim import Environment
    from repro.workload import ClientFleet

    env = Environment()
    switch = Switch(env, ports=4)
    nic = NIC(env, MACAddress("02:00:00:00:00:01"), name="c0")
    switch.attach(nic.iface)
    stack = HostStack(env, IPAddress("10.0.0.1"), nic, retransmit=False)
    fleet = ClientFleet(env, [stack], IPAddress("10.0.0.99"), request_timeout_s=1.0)
    issued = [0.1, 0.35, 0.35, 0.9, 1.1, 1.1, 2.7, 3.05]
    fleet.run_trace([RequestRecord(at, "a", "/x", 100) for at in issued])
    failed_at = []
    while env.peek() <= 6.0:
        failed = fleet.stats.failed
        env.step()
        failed_at.extend([env.now] * (fleet.stats.failed - failed))
    assert failed_at == [at + 1.0 for at in issued]
    assert fleet.stats.failed == len(issued)
    assert fleet.stats.completed == 0


def test_completed_requests_deadlines_leave_the_heap_at_the_handshake():
    """A 5 s packet run whose every request completes well inside its 1 s
    deadline: the heap never holds more than one deadline entry, and the
    released deadlines cost at most one engine event per simulated second
    (one per request before they were released)."""
    from repro.core import GageCluster, Subscriber
    from repro.sim import Environment

    env = Environment()
    workload = SyntheticWorkload(rates={"a": 20.0}, duration_s=5.0, file_bytes=2000)
    cluster = GageCluster(
        env,
        [Subscriber("a", 100)],
        {"a": workload.site_files("a")},
        num_rpns=1,
        fidelity="packet",
        num_clients=2,
    )
    fleet = cluster.fleet
    fleet.request_timeout_s = 1.0
    cluster.load_trace(workload.generate())

    def is_deadline(entry):
        payload = entry[3]
        return type(payload) is tuple and getattr(payload[0], "__self__", None) is fleet._deadlines

    most_on_heap = 0
    deadline_events = 0
    while env.peek() <= 5.0:
        most_on_heap = max(most_on_heap, sum(1 for entry in env._heap if is_deadline(entry)))
        deadline_events += is_deadline(env._heap[0])
        env.step()
    assert fleet.stats.issued == 100
    assert fleet.stats.completed == 99  # the last is in flight at 5 s
    assert fleet.stats.failed == 0
    assert most_on_heap == 1
    assert 1 <= deadline_events <= 5
