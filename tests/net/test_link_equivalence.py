"""The callback transmitter against the process-and-``Store`` one it replaced.

``ReferenceInterface`` is the transmitter ``repro.net.link.Interface`` had
before it became a two-callback machine, kept here as the reference: a
``Store`` of waiting frames and one generator process per interface that
gets a frame, sleeps for its serialization delay, applies the ``peer`` /
``up`` / loss checks and schedules the delivery.  The property drives the
same generated schedule through both and requires *equal* floats and
counters, not approximately equal ones.

Topology: two sources, each on its own link into a forwarding hop whose
receive hook sends on one shared egress link — two hosts talking to a
third through a switch, which is where frames queue, overflow and tie.

The reference reaches "this frame starts serializing" through zero-delay
events — its bootstrap, then a ``Store.get`` event per frame (and a
``Store.put`` one before it on an idle interface) — where the callback
transmitter starts the frame inside ``send()`` / ``_tx_done()``.  What
falls inside those zero-delay windows is the whole intended difference,
and the schedules keep out of them as every cluster run does:

- a send in the very instant the interface was constructed, before the
  bootstrap ran, found the on-the-wire slot counted as a queue slot —
  schedules are installed after construction, so they run after it;
- a ``bandwidth_bps`` rewrite later in the *same instant* as a send to an
  idle interface still reached the reference's frame — rewrites here
  always come a positive gap after the previous action;
- an unrelated event pushed inside the window *and* landing on exactly
  the tx-done instant would order the other way round — latencies in the
  pool are not whole byte-times, or are zero (the delivery is then pushed
  by the tx-done itself, in the same order in both).

The committed golden digests are what show no cluster run does either.
"""

import random

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.net import Interface, IPAddress, MACAddress, Packet, TCPFlags
from repro.sim import Environment, Event


class Store:
    """The FIFO object queue ``repro.sim.resources`` had until its last
    caller (the transmitter below) left ``src/``; carried with it."""

    def __init__(self, env, capacity):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self._items = []
        self._getters = []
        self._putters = []

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Append ``item``; pends while the store is full."""
        event = Event(self.env)
        self._putters.append((item, event))
        self._dispatch()
        return event

    def try_put(self, item):
        """Non-blocking put; returns False if the store is full."""
        if len(self._items) + len(self._putters) >= self._capacity:
            return False
        self.put(item)
        return True

    def get(self):
        """Remove and return the oldest item; pends while empty."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self):
        while self._putters and len(self._items) < self._capacity:
            item, event = self._putters.pop(0)
            self._items.append(item)
            event.succeed(item)
        while self._getters and self._items:
            event = self._getters.pop(0)
            event.succeed(self._items.pop(0))
        # Draining items may have freed space for more putters.
        while self._putters and len(self._items) < self._capacity:
            item, event = self._putters.pop(0)
            self._items.append(item)
            event.succeed(item)
            while self._getters and self._items:
                getter = self._getters.pop(0)
                getter.succeed(self._items.pop(0))


class ReferenceInterface(Interface):
    """``Interface`` with the parent commit's transmitter.

    It reads ``packet.total_len`` at each step, where ``Interface`` reads
    the size it computed once in ``send`` and carried with the frame; the
    ``tx_bytes``/``rx_bytes`` counters compared below are where the two
    would part.
    """

    def __init__(self, env, name, queue_frames, **kwargs):
        super().__init__(env, name, queue_frames=queue_frames, **kwargs)
        self._queue = Store(env, capacity=queue_frames)
        env.process(self._tx_loop())

    @property
    def queue_depth(self):
        return len(self._queue)

    def send(self, packet):
        if self._queue.try_put(packet):
            return True
        self.dropped_full += 1
        return False

    def _tx_loop(self):
        while True:
            packet = yield self._queue.get()
            yield self.env.timeout(packet.total_len * 8.0 / self.bandwidth_bps)
            self.tx_frames += 1
            self.tx_bytes += packet.total_len
            if self.peer is None:
                continue
            if not self.up:
                self.dropped_loss += 1
                continue
            if self.loss_rate and self._loss_rng.random() < self.loss_rate:
                self.dropped_loss += 1
                continue
            # The delivery end now takes the frame's wire length with it.
            self.env.call_later(self.latency_s, self.peer._deliver, packet, packet.total_len)


SRC, DST = MACAddress("02:00:00:00:00:01"), MACAddress("02:00:00:00:00:02")
SRC_IP, DST_IP = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")

BANDWIDTHS = [10e6, 100e6, 1e9]
#: Zero, or not a whole number of byte-times at any bandwidth above.
LATENCIES = [0.0, 5.3e-6, 19.7e-6]
PAYLOADS = [0, 46, 196, 946, 1446]
#: Gaps between scheduled actions: same instant (bursts), inside one
#: serialization, exactly one serialization of a pool frame at 100 Mbit/s
#: (so an action lands on a tx-done instant), and long enough to drain.
GAPS = [0.0, 0.0, 0.0, 1e-6, 4.32e-6, 8e-6, 13.7e-6, 80e-6, 1.2e-4, 2e-3]

actions = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1), st.sampled_from(PAYLOADS)),
    st.tuples(st.just("burst"), st.integers(0, 1), st.sampled_from(PAYLOADS)),
    st.tuples(st.just("up"), st.integers(0, 5), st.booleans()),
    st.tuples(st.just("sample"), st.just(0), st.just(0)),
)
rewrites = st.tuples(st.just("bandwidth"), st.integers(0, 5), st.sampled_from(BANDWIDTHS))
steps = st.one_of(
    st.tuples(st.sampled_from(GAPS), actions),
    # Never in the instant of an earlier send: see the module docstring.
    st.tuples(st.sampled_from([gap for gap in GAPS if gap > 0.0]), rewrites),
)

schedules = st.fixed_dictionaries(
    {
        "start_s": st.sampled_from([0.0, 1e-6, 0.25]),
        "steps": st.lists(steps, min_size=1, max_size=60),
        "queue_frames": st.integers(1, 4),
        "loss_rate": st.sampled_from([0.0, 0.0, 0.3]),
        "source_bandwidth": st.sampled_from(BANDWIDTHS),
        "egress_bandwidth": st.sampled_from(BANDWIDTHS),
        "source_latency": st.sampled_from(LATENCIES),
        "egress_latency": st.sampled_from(LATENCIES),
    }
)


def drive(interface_cls, schedule):
    """Run ``schedule`` on a fresh fabric; returns everything observable."""
    env = Environment()
    queue_frames = schedule["queue_frames"]

    def iface(name, bandwidth, latency, rng_seed):
        return interface_cls(
            env,
            name,
            queue_frames=queue_frames,
            bandwidth_bps=bandwidth,
            latency_s=latency,
            loss_rate=schedule["loss_rate"],
            loss_rng=random.Random(rng_seed),
        )

    sources = [
        iface("src{}".format(i), schedule["source_bandwidth"], schedule["source_latency"], i)
        for i in range(2)
    ]
    ingress = [iface("in{}".format(i), 100e6, 5.3e-6, 10 + i) for i in range(2)]
    egress = iface("egress", schedule["egress_bandwidth"], schedule["egress_latency"], 20)
    sink = iface("sink", 100e6, 19.7e-6, 30)
    everyone = sources + ingress + [egress, sink]
    accepted, forwarded, delivered, samples = [], [], [], []
    for source, port in zip(sources, ingress):
        source.connect(port)
        port.on_receive = lambda packet, _iface: forwarded.append(egress.send(packet))
    egress.connect(sink)
    sink.on_receive = lambda packet, _iface: delivered.append((env.now, packet.payload))
    idents = iter(range(10**6))

    def counters():
        return [
            (
                i.tx_frames,
                i.tx_bytes,
                i.rx_frames,
                i.rx_bytes,
                i.dropped_full,
                i.dropped_loss,
                i.queue_depth,
            )
            for i in everyone
        ]

    def send(source, payload_len, count):
        for _ in range(count):
            packet = Packet(
                src_mac=SRC,
                dst_mac=DST,
                src_ip=SRC_IP,
                dst_ip=DST_IP,
                src_port=1,
                dst_port=2,
                flags=TCPFlags.ACK,
                payload=next(idents),
                payload_len=payload_len,
            )
            accepted.append(sources[source].send(packet))

    def apply(kind, target, value):
        if kind == "send":
            send(target, value, 1)
        elif kind == "burst":
            send(target, value, queue_frames + 3)
        elif kind == "up":
            everyone[target].up = value
        elif kind == "bandwidth":
            everyone[target].bandwidth_bps = value
        else:
            samples.append((env.now, counters()))

    when = schedule["start_s"]
    for gap, (kind, target, value) in schedule["steps"]:
        when += gap
        env.call_at(when, apply, kind, target, value)
    env.run()
    return delivered, accepted, forwarded, samples, counters(), env.now


@seed(20030521)
@settings(max_examples=300, deadline=None)
@given(schedule=schedules)
def test_callback_transmitter_equals_the_process_transmitter(schedule):
    assert drive(Interface, schedule) == drive(ReferenceInterface, schedule)


def test_the_schedules_reach_what_they_claim_to():
    """A fixed schedule of the generated shape overflows, loses, and
    crosses an ``up`` flip — so equality above is not equality of nothing."""
    schedule = {
        "start_s": 0.25,
        "steps": [
            (0.0, ("burst", 0, 946)),
            (0.0, ("burst", 1, 46)),
            (4.32e-6, ("up", 4, False)),
            (80e-6, ("sample", 0, 0)),
            (1.2e-4, ("up", 4, True)),
            (1e-6, ("bandwidth", 4, 100e6)),
            (0.0, ("burst", 1, 1446)),
            (2e-3, ("send", 0, 196)),
        ],
        "queue_frames": 2,
        "loss_rate": 0.3,
        "source_bandwidth": 1e9,
        "egress_bandwidth": 10e6,
        "source_latency": 0.0,
        "egress_latency": 5.3e-6,
    }
    result = drive(Interface, schedule)
    assert result == drive(ReferenceInterface, schedule)
    delivered, accepted, forwarded, samples, final, _end = result
    assert delivered and False in accepted and False in forwarded
    egress = final[4]
    assert egress[4] > 0 and egress[5] > 0  # dropped_full, dropped_loss
    # Bytes are counted from the size each hop carries, on both ends.
    assert egress[1] > 0 and final[5][3] > 0  # egress tx_bytes, sink rx_bytes
    assert samples[0][1][4][6] > 0  # frames waiting at egress mid-run
