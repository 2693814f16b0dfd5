"""Subscriber churn through the primary RDN, with and without placement."""

import pytest

from repro.core import GageConfig, PlacementEngine, PrimaryRDN, Subscriber
from repro.core.grps import ResourceVector
from repro.core.simulation import default_rpn_capacity
from repro.net import IPAddress, MACAddress, NIC, Switch
from repro.sim import Environment
from repro.workload import WebRequest

CLUSTER_IP = IPAddress("10.0.0.100")
RDN_MAC = MACAddress("02:00:00:00:00:64")
RPN_MAC = MACAddress("02:00:00:00:01:01")
RPN_IP = IPAddress("10.0.1.1")


def build_rdn(env, subscribers=None, config=None, rpns=1, placement=None):
    rdn = PrimaryRDN(
        env,
        config or GageConfig(),
        CLUSTER_IP,
        subscribers if subscribers is not None else [Subscriber("site1", 100)],
        placement=placement,
    )
    switch = Switch(env, ports=4)
    nic = NIC(env, RDN_MAC, name="rdn.eth0")
    switch.attach(nic.iface)
    rdn.attach_nic(nic)
    for index in range(rpns):
        rdn.add_rpn(
            "rpn{}".format(index), default_rpn_capacity(), mac=RPN_MAC, ip=RPN_IP
        )
    return rdn


def test_register_subscriber_mid_run():
    env = Environment()
    rdn = build_rdn(env)
    assert not rdn.submit_request("late", "req")
    assert rdn.register_subscriber(Subscriber("late", reservation_grps=50))
    assert rdn.submit_request("late", "req")
    assert len(rdn.queues.get("late")) == 1
    assert rdn.classifier.classify_payload(WebRequest("late", "/x", 100)) == "late"


def test_register_subscriber_with_extra_hosts():
    env = Environment()
    rdn = build_rdn(env)
    assert rdn.register_subscriber(
        Subscriber("acme", 50), hosts=["www.acme.com", "acme.com"]
    )
    assert (
        rdn.classifier.classify_payload(WebRequest("www.acme.com", "/x", 100))
        == "acme"
    )
    # The bare name was not auto-bound when explicit hosts were given.
    assert rdn.classifier.classify_payload(WebRequest("acme", "/x", 100)) is None


def test_register_duplicate_raises():
    env = Environment()
    rdn = build_rdn(env)
    with pytest.raises(RuntimeError):
        rdn.register_subscriber(Subscriber("site1", 10))


def test_deregister_subscriber_stops_service():
    env = Environment()
    rdn = build_rdn(env)
    assert rdn.deregister_subscriber("site1")
    assert not rdn.deregister_subscriber("site1")  # idempotent
    assert not rdn.submit_request("site1", "req")
    assert rdn.classifier.classify_payload(WebRequest("site1", "/x", 100)) is None


def test_deregister_with_queued_requests_keeps_conservation():
    env = Environment()
    rdn = build_rdn(env)
    rdn.flow_dispatch = lambda req, rpn, sub: None
    for i in range(5):
        assert rdn.submit_request("site1", "req-{}".format(i))
    rdn.scheduler.run_cycle()  # put some predictions in flight
    assert rdn.deregister_subscriber("site1")
    delta = rdn.accounting.conservation_delta()
    assert abs(delta.cpu_s) < 1e-9
    assert abs(delta.disk_s) < 1e-9
    assert abs(delta.net_bytes) < 1e-6


def test_id_reuse_after_churn():
    env = Environment()
    rdn = build_rdn(env, subscribers=[Subscriber("a", 100), Subscriber("b", 100)])
    rdn.flow_dispatch = lambda req, rpn, sub: None
    rdn.deregister_subscriber("a")
    assert rdn.register_subscriber(Subscriber("c", reservation_grps=100))
    assert rdn.submit_request("c", "req")
    decisions = rdn.scheduler.run_cycle()
    assert {d.subscriber for d in decisions} == {"c"}


# -- with the placement layer on ---------------------------------------------


def test_placement_engine_must_measure_in_the_config_generic_request():
    env = Environment()
    config = GageConfig()
    other_unit = config.generic_request.scaled(2.0)
    with pytest.raises(ValueError, match="generic request"):
        build_rdn(env, config=config, placement=PlacementEngine(generic=other_unit))
    rdn = build_rdn(
        env, config=config, placement=PlacementEngine(generic=config.generic_request)
    )
    assert rdn.placement is not None


def test_constructor_subscribers_placed_when_first_rpn_joins():
    env = Environment()
    rdn = build_rdn(
        env,
        subscribers=[Subscriber("site1", 50)],
        placement=PlacementEngine(k_backup=0),
        rpns=1,
    )
    assert rdn.placement is not None
    assert rdn.placement.allowed_nodes("site1") == frozenset({"rpn0"})
    assert rdn._placement_deferred == []


def test_admission_rejects_unplaceable_reservation():
    env = Environment()
    # One 100-GRPS node, 80 already reserved: a 50-GRPS newcomer must be
    # rejected and leave no trace in queues/accounting/classifier.
    rdn = build_rdn(
        env, subscribers=[Subscriber("site1", 80)], placement=PlacementEngine(k_backup=0)
    )
    assert not rdn.register_subscriber(Subscriber("greedy", reservation_grps=50))
    assert "greedy" not in rdn.queues
    assert rdn.accounting.get("greedy") is None
    assert rdn.classifier.classify_payload(WebRequest("greedy", "/x", 100)) is None
    assert rdn.placement.stats.rejected == 1
    # A modest newcomer still fits.
    assert rdn.register_subscriber(Subscriber("modest", reservation_grps=10))


def test_rejected_constructor_subscriber_retries_on_new_node():
    env = Environment()
    rdn = build_rdn(
        env,
        subscribers=[Subscriber("big1", 80), Subscriber("big2", 80)],
        placement=PlacementEngine(k_backup=0),
        rpns=1,
    )
    # Only one fits on the single 100-GRPS node; the other stays deferred.
    assert len(rdn._placement_deferred) == 1
    deferred_name = rdn._placement_deferred[0].name
    assert rdn.placement.allowed_nodes(deferred_name) == frozenset()
    rdn.add_rpn("rpn1", default_rpn_capacity(), mac=RPN_MAC, ip=RPN_IP)
    assert rdn._placement_deferred == []
    assert rdn.placement.allowed_nodes(deferred_name) == frozenset({"rpn1"})


def test_node_death_promotes_embedding_with_backup():
    env = Environment()
    rdn = build_rdn(
        env,
        subscribers=[Subscriber("site1", 50)],
        placement=PlacementEngine(k_backup=1),
        rpns=2,
    )
    embedding = rdn.placement.embedding_of("site1")
    primary, backup = embedding.primary, embedding.backups[0]
    rdn._on_node_death(primary)
    assert rdn.placement.allowed_nodes("site1") == frozenset({backup})
    assert rdn.placement.stats.violations == 0


def test_deregister_releases_embedded_capacity():
    env = Environment()
    rdn = build_rdn(
        env, subscribers=[Subscriber("site1", 80)], placement=PlacementEngine(k_backup=0)
    )
    assert not rdn.register_subscriber(Subscriber("late", reservation_grps=50))
    assert rdn.deregister_subscriber("site1")
    assert rdn.register_subscriber(Subscriber("late2", reservation_grps=50))
    assert rdn.placement.allowed_nodes("late2") == frozenset({"rpn0"})
