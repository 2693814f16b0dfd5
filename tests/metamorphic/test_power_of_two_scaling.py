"""Power-of-two scaling: the control plane is exact under a change of units.

Multiply the generic request, every node capacity and every reported
usage by ``k = 2**j`` and keep the reservations in GRPS.  Every credit,
prediction, balance and load is then ``k`` times the unscaled one, and
every product, quotient and comparison the scheduler makes is exact under
the scaling — except one: the drain test ``balance - predicted < -EPSILON``
compares against an absolute ``ResourceVector.EPSILON`` of 1e-6, which is
seconds for CPU and disk but *bytes* for the network, and does not scale.

So the relation holds bit for bit once ``EPSILON`` is scaled by ``k`` as
well, and a difference that lies between ``-1e-6`` and ``-k * 1e-6``
breaks it under the fixed epsilon.  Both are pinned here; the fixed
epsilon stays, because changing it would move every digest.

The scheduler, node scheduler and accounting are driven directly, as in
``tests/core/test_scheduler_lazy.py``.
"""

from contextlib import contextmanager

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.core import (
    GageConfig,
    NodeScheduler,
    RDNAccounting,
    RequestScheduler,
    Subscriber,
    SubscriberQueues,
)
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.grps import GENERIC_REQUEST, ResourceVector

SCALES = tuple(2.0**j for j in (-3, 1, 4))
RESERVATIONS = (100.0, 50.0, 25.0, 3.0, 0.5)
#: Heterogeneous nodes: a fast one, a half-speed CPU, and a slow link.
CAPACITIES = (
    ResourceVector(1.0, 1.0, 12_500_000.0),
    ResourceVector(0.5, 1.0, 12_500_000.0),
    ResourceVector(2.0, 1.0, 6_250_000.0),
)


@contextmanager
def epsilon(value):
    saved = ResourceVector.EPSILON
    ResourceVector.EPSILON = value
    try:
        yield
    finally:
        ResourceVector.EPSILON = saved


def run(ops, k, spare_policy, nodes=len(CAPACITIES)):
    """Drive one control plane at scale ``k``; returns what is compared."""
    config = GageConfig(generic_request=GENERIC_REQUEST.scaled(k), spare_policy=spare_policy)
    queues = SubscriberQueues()
    accounting = RDNAccounting(table=queues.table)
    node_scheduler = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
    for index, grps in enumerate(RESERVATIONS):
        subscriber = Subscriber("sub{}".format(index), grps)
        queues.register(subscriber)
        accounting.register(subscriber)
    rpn_ids = ["rpn{}".format(i) for i in range(nodes)]
    for rpn_id, capacity in zip(rpn_ids, CAPACITIES):
        node_scheduler.add_node(rpn_id, capacity.scaled(k))
    scheduler = RequestScheduler(
        config, queues, accounting, node_scheduler, dispatch_fn=lambda *args: None
    )
    trace = []
    predictions = []
    serial = 0
    for op in ops:
        kind = op[0]
        if kind == "offer":
            for _ in range(op[2]):
                serial += 1
                queues.get("sub{}".format(op[1])).offer(serial)
        elif kind == "cycles":
            for _ in range(op[1]):
                for decision in scheduler.run_cycle():
                    trace.append(
                        (scheduler.cycles, decision.subscriber, decision.rpn_id, decision.spare)
                    )
                    predictions.append(decision.predicted)
        elif kind == "feedback":
            _, rpn, sub, completed, factors = op
            usage = ResourceVector(
                *(g * f * completed for g, f in zip(GENERIC_REQUEST, factors))
            )
            scheduler.apply_feedback(
                AccountingMessage(
                    rpn_id=rpn_ids[rpn % nodes],
                    cycle_start_s=0.0,
                    cycle_end_s=0.1,
                    total_usage=ResourceVector.ZERO,
                    per_subscriber={
                        "sub{}".format(sub): RPNUsageReport(usage.scaled(k), completed)
                    },
                )
            )
    scheduler.sync()
    balances = [accounting.account_by_id(queue.sid).balance for queue in queues]
    outstanding = [node.outstanding for node in node_scheduler.nodes()]
    return trace, predictions, balances, outstanding


def bits(vectors, k=1.0):
    """The exact bits of every component of ``k * vector``."""
    return [tuple((x * k).hex() for x in vector) for vector in vectors]


def assert_scaled(ops, k, spare_policy):
    trace, predictions, balances, outstanding = run(ops, 1.0, spare_policy)
    with epsilon(k * 1e-6):
        scaled = run(ops, k, spare_policy)
    assert scaled[0] == trace
    assert bits(scaled[1]) == bits(predictions, k)
    assert bits(scaled[2]) == bits(balances, k)
    assert bits(scaled[3]) == bits(outstanding, k)
    return trace


_sub = st.integers(0, len(RESERVATIONS) - 1)
_factor = st.sampled_from((0.3, 0.9, 1.0, 1.75, 2.5))
_feedback = st.tuples(
    st.just("feedback"),
    st.integers(0, len(CAPACITIES) - 1),
    _sub,
    st.integers(0, 3),
    st.tuples(_factor, _factor, _factor),
)
#: Each round is a few ops; mostly a burst of offers and then some cycles,
#: so that most examples dispatch.
ROUNDS = st.one_of(
    st.tuples(
        st.tuples(st.just("offer"), _sub, st.integers(1, 12)),
        st.tuples(st.just("cycles"), st.sampled_from((1, 1, 2, 5, 30))),
    ),
    st.tuples(st.tuples(st.just("cycles"), st.sampled_from((1, 3, 60)))),
    st.tuples(_feedback),
)

#: A 100-GRPS subscriber is measured 2e-6 bytes over one generic request:
#: its next refill leaves ``balance - predicted`` ≈ -4e-6 bytes.
NET_OVERSHOOT = [
    ("offer", 0, 1),
    ("cycles", 1),
    ("feedback", 0, 0, 1, (1.0, 1.0, 1.000_000_001)),
    ("offer", 0, 1),
    ("cycles", 1),
]


def test_power_of_two_scaling_is_bit_exact_with_a_scaled_epsilon():
    dispatched = []

    @seed(20030528)
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(("reservation", "none")), st.lists(ROUNDS, min_size=1, max_size=20))
    @example("none", [tuple(NET_OVERSHOOT)])
    def check(spare_policy, rounds):
        ops = [op for ops in rounds for op in ops]
        for k in SCALES:
            dispatched.append(assert_scaled(ops, k, spare_policy))

    check()
    # Most cases dispatch, some on spare credit: the relation is not vacuous.
    assert sum(1 for trace in dispatched if trace) > len(dispatched) // 2
    assert any(spare for trace in dispatched for *_, spare in trace)


def test_the_fixed_epsilon_breaks_the_relation_at_one_eighth():
    """-4e-6 bytes is overdrawn at k = 1; at k = 1/8 it is -5e-7 bytes, inside 1e-6."""
    trace = run(NET_OVERSHOOT, 1.0, "none")[0]
    assert [cycle for cycle, *_ in trace] == [1]  # the second request waits
    scaled = run(NET_OVERSHOOT, 0.125, "none")[0]
    assert [cycle for cycle, *_ in scaled] == [1, 2]  # ... but not at k = 1/8
    with epsilon(0.125e-6):
        assert run(NET_OVERSHOOT, 0.125, "none")[0] == trace
