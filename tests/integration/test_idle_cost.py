"""Idle subscribers cost nothing per cycle — shown by counts, not timings."""

from repro.cluster.procs import SimProcess
from repro.core import GageCluster, GageConfig, RDNAccounting, Subscriber
from repro.core import accounting as accounting_module
from repro.sim import Environment


def idle_cluster(config):
    """2 000 identical 0.1-GRPS tenants that never send."""
    names = ["tenant{:04d}".format(i) for i in range(2000)]
    return GageCluster(
        Environment(),
        [Subscriber(name, 0.1) for name in names],
        {name: {} for name in names},
        num_rpns=8,
        config=config,
        fidelity="flow",
        workers_per_site=1,
    )


def test_idle_population_is_neither_refilled_nor_walked(monkeypatch):
    config = GageConfig(accounting_cycle_s=0.25)
    cluster = idle_cluster(config)
    messages = []
    feedback = cluster.rdn.on_feedback
    cluster.rdn.on_feedback = lambda message: (messages.append(message), feedback(message))
    scheduler = cluster.rdn.scheduler
    assert scheduler.active_count() == 2000
    cluster.run(config.scheduling_cycle_s * 1.5)
    assert scheduler.cycles == 1 and scheduler.active_count() == 0

    cluster.run(0.3)  # every RPN has made its first accounting walk
    assert len({message.rpn_id for message in messages}) == 8
    calls = {"refill": 0, "subtree": 0}
    refill, subtree = RDNAccounting.refill_account, SimProcess.subtree_usage

    def counted_refill(account, credit, cap):
        calls["refill"] += 1
        refill(account, credit, cap)

    def counted_subtree(self):
        calls["subtree"] += 1
        return subtree(self)

    monkeypatch.setattr(RDNAccounting, "refill_account", staticmethod(counted_refill))
    monkeypatch.setattr(SimProcess, "subtree_usage", counted_subtree)
    cycles, walks = scheduler.cycles, len(messages)
    cluster.run(1.3)
    assert scheduler.cycles - cycles == 100 and len(messages) - walks == 8 * 4
    assert calls == {"refill": 0, "subtree": 0}
    assert all(not message.per_subscriber for message in messages)
    # ... and the parked balances are nonetheless the per-cycle ones.
    balance = scheduler.accounting.account_by_id(0).balance
    assert balance.cpu_s > 100 * 0.1 * config.scheduling_cycle_s * 0.010


def test_identically_parked_tenants_share_one_replay(monkeypatch):
    """The end-of-run sync replays each distinct parked state once."""
    config = GageConfig(accounting_cycle_s=0.25)
    cluster = idle_cluster(config)
    cluster.run(0.3)  # everyone parked, then brought up to date by sync
    scheduler = cluster.rdn.scheduler
    assert scheduler.active_count() == 0
    accounting = scheduler.accounting
    start, synced = accounting.account_by_id(0).balance, accounting.cycle
    replays = []
    refill = accounting_module._refill

    def counted_refill(balance, add, limit, cycles=1):
        if cycles > 1:
            replays.append(cycles)
        return refill(balance, add, limit, cycles)

    monkeypatch.setattr(accounting_module, "_refill", counted_refill)
    cluster.run(1.6)
    missed = accounting.cycle - synced
    # One parked state, three components: one replay, not one per tenant.
    assert missed > 1 and replays == [missed] * 3
    # ... and every balance is nonetheless the per-cycle one, bit for bit.
    _last, credit, cap = accounting.account_by_id(0).parked
    expected = []
    for component in range(3):
        value = start[component]
        for _ in range(missed):
            value = refill(value, credit[component], cap[component])
        expected.append(value.hex())
    for sid in range(2000):
        balance = accounting.account_by_id(sid).balance
        assert [value.hex() for value in balance] == expected
