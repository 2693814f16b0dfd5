"""BENCH_engine — microbenchmarks of the refactored hot paths.

Unlike the table/figure suites, this one has no paper row to reproduce:
it pins the per-event costs the hot-path rearchitecture targets — raw
event dispatch, one frame across two links and a switch, per-packet
forwarding, and one credit-scheduler cycle — so a future change that
regresses the engine shows up directly rather than smeared across a
40-second figure run.
"""

from repro.core.accounting import RDNAccounting
from repro.core.config import GageConfig
from repro.core.grps import ResourceVector, grps
from repro.core.node_scheduler import NodeScheduler
from repro.core.queues import SubscriberQueues
from repro.core.scheduler import RequestScheduler
from repro.core.subscriber import Subscriber
from repro.net import NIC, IPAddress, Switch, TCPFlags
from repro.net.conn import Quadruple
from repro.sim import Environment

from .test_table3_overhead import client_packet, small_cluster

#: Events per dispatch-loop benchmark round; large enough that the
#: per-round Environment setup is noise.
DISPATCH_CHAIN = 10_000

#: Frames per link-hop benchmark round; inside the default transmit queue
#: so none is refused.
HOP_FRAMES = 500

#: Timing drift on runners below this core count is advisory, not
#: gating (``bench_compare`` CONFIG semantics): a busy 1-core box
#: time-slices the benchmark against the harness itself.
MIN_CORES = 2


def _stamp(benchmark):
    benchmark.extra_info["min_cores"] = MIN_CORES


def test_event_dispatch(benchmark):
    """A chain of scheduled callbacks: pop + invoke is the whole cost."""

    def drain_chain():
        env = Environment()
        remaining = [DISPATCH_CHAIN]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                env.call_later(0.001, tick)

        env.call_later(0.0, tick)
        env.run()
        return remaining[0]

    assert benchmark(drain_chain) == 0
    _stamp(benchmark)


def test_link_hop(benchmark):
    """Host -> switch -> host: two link hops and one forwarding decision
    per frame (the round time is for ``HOP_FRAMES`` frames)."""
    env = Environment()
    switch = Switch(env, ports=4)
    frame = client_packet(4500, flags=TCPFlags.ACK)
    sender = NIC(env, frame.src_mac, name="sender")
    receiver = NIC(env, frame.dst_mac, name="receiver")
    switch.attach(sender.iface)
    switch.attach(receiver.iface)
    received = []
    receiver.receive_handler = received.append
    # Teach the switch both addresses so every timed frame is forwarded.
    receiver.transmit(frame.copy(src_mac=receiver.mac, dst_mac=sender.mac))
    env.run()

    def burst():
        del received[:]
        for _ in range(HOP_FRAMES):
            sender.transmit(frame)
        env.run()
        return len(received)

    assert benchmark(burst) == HOP_FRAMES
    assert switch.flooded == 1
    benchmark.extra_info["frames"] = HOP_FRAMES
    _stamp(benchmark)


def test_packet_forward(benchmark):
    """RDN fast path: conntable hit -> header rewrite -> transmit."""
    cluster = small_cluster()
    rpn_mac = cluster.lsms[0].rpn_mac
    quad = Quadruple(IPAddress("10.0.0.1"), 4500, IPAddress("10.0.0.100"), 80)
    cluster.rdn.conntable.insert(quad, "rpn0", rpn_mac)
    packet = client_packet(4500, flags=TCPFlags.ACK, seq=4242)

    benchmark(cluster.rdn.handle_packet, packet)
    assert cluster.rdn.ops.forwards > 0
    _stamp(benchmark)


def test_scheduler_cycle(benchmark):
    """One §3.4 credit cycle over two backlogged subscriber queues."""
    config = GageConfig()
    queues = SubscriberQueues()
    accounting = RDNAccounting(table=queues.table)
    nodes = NodeScheduler(window_s=0.25)
    subscribers = [Subscriber("gold", 100), Subscriber("bronze", 50)]
    for subscriber in subscribers:
        queues.register(subscriber)
        accounting.register(subscriber)
    nodes.add_node("rpn0", grps(400))
    scheduler = RequestScheduler(
        config, queues, accounting, nodes, lambda request, rpn, name, predicted: None
    )
    gold = queues.get("gold")
    bronze = queues.get("bronze")
    status = nodes.node("rpn0")

    def one_cycle():
        # Keep both queues backlogged and the node unloaded so every
        # cycle does the same amount of refill + drain work.
        for _ in range(4):
            gold.offer(object())
            bronze.offer(object())
        decisions = scheduler.run_cycle()
        status.outstanding = ResourceVector.ZERO
        return decisions

    decisions = benchmark(one_cycle)
    assert decisions, "a cycle over backlogged queues must dispatch"
    _stamp(benchmark)
