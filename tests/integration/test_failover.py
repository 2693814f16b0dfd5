"""End-to-end node failure, degraded-mode QoS, and recovery.

The acceptance scenario: four RPNs, three subscribers, one RPN crashes
mid-run.  The RDN must detect the death from the silent accounting
stream within K+1 accounting cycles, stop dispatching to the dead node,
redistribute its capacity through the spare pool, and restore the
original allocation once the node restarts and reports again.
"""

import pytest

from repro.core import GageCluster, GageConfig, Subscriber
from repro.core.metrics import (
    DELEGATE_TIMEOUT,
    NODE_DOWN,
    NODE_UP,
    REQUESTS_REQUEUED,
    SECONDARY_DOWN,
    SECONDARY_UP,
)
from repro.faults import CRASH, RESTART, FaultAction, FaultSchedule
from repro.sim import Environment
from repro.workload import SyntheticWorkload

CRASH_AT = 4.0
RESTART_AT = 8.0
#: K missed accounting cycles declare death; detection must land within
#: K+1 cycles of the crash.
K = 3
CYCLE = 0.100


def build_failover_cluster(env):
    # Capacity 4 x 100 = 400 GRPS; reservations 120 + 90 + 60 = 270.
    # 2000-byte pages cost exactly one generic request, so GRPS == req/s.
    subs = [
        Subscriber("a", reservation_grps=120, queue_capacity=256),
        Subscriber("b", reservation_grps=90, queue_capacity=256),
        Subscriber("c", reservation_grps=60, queue_capacity=256),
    ]
    rates = {"a": 115.0, "b": 85.0, "c": 200.0}
    workload = SyntheticWorkload(rates=rates, duration_s=12.0, file_bytes=2000)
    cluster = GageCluster(
        env,
        subs,
        {name: workload.site_files(name) for name in rates},
        num_rpns=4,
        fidelity="flow",
        config=GageConfig(heartbeat_miss_limit=K, accounting_cycle_s=CYCLE),
    )
    cluster.load_trace(workload.generate())
    cluster.install_faults(FaultSchedule.crash_restart("rpn3", CRASH_AT, RESTART_AT - CRASH_AT))
    return cluster


def run_failover(seed=0):
    env = Environment()
    cluster = build_failover_cluster(env)
    probes = {}

    def snapshot(label):
        status = cluster.rdn.node_scheduler.node("rpn3")
        probes[label] = (status.up, status.dispatched)

    # Just after the detection deadline, and just before the restart.
    env.call_later(CRASH_AT + (K + 1) * CYCLE + 0.2, snapshot, "after_detect")
    env.call_later(RESTART_AT - 0.1, snapshot, "before_restart")
    cluster.run(12.0)
    return cluster, probes


@pytest.fixture(scope="module")
def failover():
    return run_failover()


def test_death_detected_within_k_plus_one_cycles(failover):
    cluster, _probes = failover
    latency = cluster.rdn.failures.detection_latency_s(CRASH_AT, "rpn3")
    assert latency is not None
    assert latency <= (K + 1) * CYCLE + CYCLE  # +1 scheduling-cycle slack


def test_no_dispatch_to_dead_node(failover):
    cluster, probes = failover
    up_after_detect, dispatched_after_detect = probes["after_detect"]
    up_before_restart, dispatched_before_restart = probes["before_restart"]
    assert not up_after_detect
    assert not up_before_restart
    # Not a single dispatch between detection and restart.
    assert dispatched_after_detect == dispatched_before_restart


def test_in_flight_requests_requeued_not_lost(failover):
    cluster, _probes = failover
    event = cluster.rdn.failures.first(REQUESTS_REQUEUED, "rpn3")
    assert event is not None and event.detail >= 1
    requeued = sum(q.requeued for q in cluster.rdn.queues)
    assert requeued == int(event.detail)


def test_degraded_shares_within_15_percent(failover):
    """Survivor capacity 300: a=115, b=85 ride their reservations; c gets
    its 60 plus the shrunken spare pool (300 - 270 = 30) => ~90."""
    cluster, _probes = failover
    reports = {r.subscriber: r for r in cluster.all_reports(5.5, 7.5)}
    assert reports["a"].served_rate == pytest.approx(115.0, rel=0.15)
    assert reports["b"].served_rate == pytest.approx(85.0, rel=0.15)
    assert reports["c"].served_rate == pytest.approx(90.0, rel=0.15)


def test_recovered_shares_within_15_percent(failover):
    """Back to 400 GRPS: spare returns to 130 and c drains its backlog at
    60 + 130 = ~190 while a and b stay at their offered rates."""
    cluster, _probes = failover
    assert cluster.rdn.failures.first(NODE_UP, "rpn3") is not None
    reports = {r.subscriber: r for r in cluster.all_reports(9.5, 11.5)}
    assert reports["a"].served_rate == pytest.approx(115.0, rel=0.15)
    assert reports["b"].served_rate == pytest.approx(85.0, rel=0.15)
    assert reports["c"].served_rate == pytest.approx(190.0, rel=0.15)


def test_recovery_restores_dispatching(failover):
    cluster, probes = failover
    status = cluster.rdn.node_scheduler.node("rpn3")
    assert status.up
    # The restored node took new work after re-admission.
    assert status.dispatched > probes["before_restart"][1]


def test_failover_run_is_deterministic():
    first, _ = run_failover()
    second, _ = run_failover()
    events_a = [(e.at_s, e.kind, e.target) for e in first.rdn.failures.events]
    events_b = [(e.at_s, e.kind, e.target) for e in second.rdn.failures.events]
    assert events_a == events_b
    assert first.completions == second.completions
    assert first.lost_in_flight == second.lost_in_flight


def test_detection_records_node_down_event(failover):
    cluster, _probes = failover
    down = cluster.rdn.failures.first(NODE_DOWN, "rpn3")
    assert down is not None
    assert down.at_s >= CRASH_AT
    # The silence that triggered detection spans at least K cycles.
    assert down.detail >= K * CYCLE


def test_dead_secondary_times_out_and_primary_takes_over():
    """A crashed secondary RDN answers no DelegateHandshake orders: each
    delegation times out, the primary emulates the handshake itself,
    and after ``SECONDARY_FAILURE_LIMIT`` (2) consecutive timeouts the
    secondary leaves the rotation — until revived."""
    env = Environment()
    subs = [Subscriber("a", 100, queue_capacity=256)]
    workload = SyntheticWorkload(rates={"a": 30.0}, duration_s=4.0, file_bytes=2000)
    cluster = GageCluster(
        env,
        subs,
        {"a": workload.site_files("a")},
        num_rpns=2,
        fidelity="packet",
        num_secondaries=1,
    )
    cluster.load_trace(workload.generate())
    cluster.install_faults(
        FaultSchedule(
            [
                FaultAction(0.0, CRASH, "secondary0"),
                FaultAction(3.0, RESTART, "secondary0"),
            ]
        )
    )
    cluster.run(6.0)
    log = cluster.rdn.failures
    # At least the two strikes needed to eject; SYNs already delegated
    # before the ejection each still time out individually.
    assert log.count(DELEGATE_TIMEOUT) >= 2
    assert log.count(SECONDARY_DOWN) == 1
    assert log.count(SECONDARY_UP) == 1
    # No client was stranded: timed-out handshakes were emulated locally.
    assert cluster.fleet.stats.completed == cluster.fleet.stats.issued
    # After revival the secondary really does handshakes again.
    assert cluster.secondaries[0].handshakes_completed > 0


def test_partitioned_rpn_detected_and_recovers_on_heal():
    """Cutting an RPN's link silences its accounting stream: the
    detector declares it dead; healing the link re-admits it."""
    env = Environment()
    subs = [Subscriber("a", 100, queue_capacity=256)]
    workload = SyntheticWorkload(rates={"a": 20.0}, duration_s=6.0, file_bytes=2000)
    cluster = GageCluster(
        env,
        subs,
        {"a": workload.site_files("a")},
        num_rpns=2,
        fidelity="packet",
        config=GageConfig(heartbeat_miss_limit=K, accounting_cycle_s=CYCLE),
    )
    cluster.load_trace(workload.generate())
    cluster.install_faults(FaultSchedule.partition_heal("rpn0", 1.5, 2.0))
    cluster.run(7.0)
    log = cluster.rdn.failures
    down = log.first(NODE_DOWN, "rpn0")
    up = log.first(NODE_UP, "rpn0")
    assert down is not None and down.at_s == pytest.approx(1.5, abs=(K + 2) * CYCLE)
    assert up is not None and up.at_s > 3.5  # only after the heal
    # Service never stopped: completions happened during the partition.
    during = [at for at, _h in cluster.completions if 2.0 <= at < 3.5]
    assert during
    # And the healed node took work again afterwards.
    assert cluster.rdn.node_scheduler.node("rpn0").up


def test_partition_rejected_in_flow_mode():
    env = Environment()
    subs = [Subscriber("a", 100)]
    cluster = GageCluster(env, subs, {"a": {}}, num_rpns=1, fidelity="flow")
    with pytest.raises(ValueError):
        cluster.partition("rpn0")
    with pytest.raises(ValueError):
        cluster.heal("rpn0")
