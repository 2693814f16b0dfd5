"""Tests for interfaces, links, NIC filtering, and the learning switch."""

import pytest

from repro.net import NIC, IPAddress, Interface, MACAddress, Packet, Switch, TCPFlags
from repro.sim import Environment


def frame(src_mac, dst_mac, payload_len=0):
    return Packet(
        src_mac=MACAddress(src_mac),
        dst_mac=MACAddress(dst_mac),
        src_ip=IPAddress("10.0.0.1"),
        dst_ip=IPAddress("10.0.0.2"),
        src_port=1,
        dst_port=2,
        flags=TCPFlags.ACK,
        payload_len=payload_len,
    )


def test_interface_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Interface(env, "x", bandwidth_bps=0)
    with pytest.raises(ValueError):
        Interface(env, "x", latency_s=-1)
    with pytest.raises(ValueError):
        Interface(env, "x", loss_rate=1.0)
    with pytest.raises(ValueError):
        Interface(env, "x", queue_frames=0)


def test_point_to_point_delivery_timing():
    env = Environment()
    a = Interface(env, "a", bandwidth_bps=100e6, latency_s=10e-6)
    b = Interface(env, "b", bandwidth_bps=100e6, latency_s=10e-6)
    a.connect(b)
    arrivals = []
    b.on_receive = lambda pkt, iface: arrivals.append(env.now)
    pkt = frame("02:00:00:00:00:01", "02:00:00:00:00:02", payload_len=946)
    # 946 + 54 headers = 1000 bytes = 8000 bits at 100 Mbit/s = 80 us + 10 us.
    a.send(pkt)
    env.run()
    assert arrivals == [pytest.approx(90e-6)]


def test_serialization_is_sequential():
    env = Environment()
    a = Interface(env, "a", bandwidth_bps=100e6, latency_s=0.0)
    b = Interface(env, "b")
    a.connect(b)
    arrivals = []
    b.on_receive = lambda pkt, iface: arrivals.append(env.now)
    for _ in range(3):
        a.send(frame("02:00:00:00:00:01", "02:00:00:00:00:02", payload_len=946))
    env.run()
    # Each frame takes 80 us to serialize; back-to-back arrivals.
    assert arrivals == [
        pytest.approx(80e-6),
        pytest.approx(160e-6),
        pytest.approx(240e-6),
    ]


def test_queue_overflow_drops():
    """``queue_frames`` counts waiting frames, not the one on the wire."""
    env = Environment()
    a = Interface(env, "a", queue_frames=2)
    b = Interface(env, "b")
    a.connect(b)
    received = []
    b.on_receive = lambda pkt, iface: received.append(pkt)
    frames = [frame("02:00:00:00:00:01", "02:00:00:00:00:02") for _ in range(5)]
    accepted = [a.send(pkt) for pkt in frames]
    assert accepted == [True, True, True, False, False]  # 1 on the wire + 2 waiting
    assert a.queue_depth == 2
    assert a.dropped_full == 2
    env.run()
    assert len(received) == 3
    assert all(got is sent for got, sent in zip(received, frames))
    assert a.queue_depth == 0


def test_a_hop_costs_two_engine_events():
    """tx-done and delivery: nothing else is scheduled per frame, and an
    interface that never sends schedules nothing at all."""
    env = Environment()
    a = Interface(env, "a")
    b = Interface(env, "b")
    a.connect(b)
    env.run()
    assert env.events_dispatched == 0
    received = []
    b.on_receive = lambda pkt, iface: received.append(pkt)
    count = 25
    for _ in range(count):  # back to back: all but the first wait their turn
        a.send(frame("02:00:00:00:00:01", "02:00:00:00:00:02"))
    env.run()
    assert len(received) == count
    assert env.events_dispatched == 2 * count
    for _ in range(count):  # one at a time: every frame finds the wire idle
        a.send(frame("02:00:00:00:00:01", "02:00:00:00:00:02"))
        env.run()
    assert len(received) == 2 * count
    assert env.events_dispatched == 4 * count


def test_double_connect_rejected():
    env = Environment()
    a = Interface(env, "a")
    b = Interface(env, "b")
    c = Interface(env, "c")
    a.connect(b)
    with pytest.raises(RuntimeError):
        a.connect(c)


def test_loss_rate_drops_frames():
    import random

    env = Environment()
    a = Interface(env, "a", loss_rate=0.5, loss_rng=random.Random(42))
    b = Interface(env, "b")
    a.connect(b)
    received = []
    b.on_receive = lambda pkt, iface: received.append(pkt)
    for _ in range(200):
        a.send(frame("02:00:00:00:00:01", "02:00:00:00:00:02"))
    env.run()
    assert 60 < len(received) < 140
    assert a.dropped_loss == 200 - len(received)


def test_nic_mac_filtering():
    env = Environment()
    a = Interface(env, "a")
    nic = NIC(env, MACAddress("02:00:00:00:00:02"), name="b")
    a.connect(nic.iface)
    seen = []
    nic.receive_handler = seen.append
    a.send(frame("02:00:00:00:00:01", "02:00:00:00:00:02"))  # for us
    a.send(frame("02:00:00:00:00:01", "02:00:00:00:00:99"))  # not for us
    a.send(frame("02:00:00:00:00:01", "ff:ff:ff:ff:ff:ff"))  # broadcast
    env.run()
    assert len(seen) == 2
    assert nic.rx_filtered == 1


def test_nic_promiscuous_mode():
    env = Environment()
    a = Interface(env, "a")
    nic = NIC(env, MACAddress("02:00:00:00:00:02"), name="b", promiscuous=True)
    a.connect(nic.iface)
    seen = []
    nic.receive_handler = seen.append
    a.send(frame("02:00:00:00:00:01", "02:00:00:00:00:99"))
    env.run()
    assert len(seen) == 1


def test_nic_interrupt_sink_charged():
    env = Environment()
    a = Interface(env, "a")
    costs = []
    nic = NIC(
        env,
        MACAddress("02:00:00:00:00:02"),
        name="b",
        interrupt_cost_s=5e-6,
        interrupt_sink=costs.append,
    )
    a.connect(nic.iface)
    for _ in range(3):
        a.send(frame("02:00:00:00:00:01", "02:00:00:00:00:02"))
    env.run()
    assert costs == [5e-6, 5e-6, 5e-6]


def test_switch_learning_and_forwarding():
    env = Environment()
    switch = Switch(env, ports=4)
    macs = ["02:00:00:00:00:0{}".format(i) for i in range(1, 4)]
    nics = [NIC(env, MACAddress(mac), name=mac) for mac in macs]
    inboxes = {mac: [] for mac in macs}
    for mac, nic in zip(macs, nics):
        nic.receive_handler = inboxes[mac].append
        switch.attach(nic.iface)

    # First frame to an unlearned MAC floods everywhere except ingress.
    nics[0].transmit(frame(macs[0], macs[1]))
    env.run()
    assert len(inboxes[macs[1]]) == 1
    assert len(inboxes[macs[2]]) == 0  # NIC filtered the flooded copy
    assert switch.flooded == 1

    # Reply: now both MACs are learned, so unicast forwarding.
    nics[1].transmit(frame(macs[1], macs[0]))
    env.run()
    assert len(inboxes[macs[0]]) == 1
    assert (switch.flooded, switch.forwarded) == (1, 1)

    # And the first sender's frames are now forwarded, not flooded, too.
    nics[0].transmit(frame(macs[0], macs[1]))
    env.run()
    assert len(inboxes[macs[1]]) == 2
    assert (switch.flooded, switch.forwarded) == (1, 2)


def test_switch_broadcast_floods():
    env = Environment()
    switch = Switch(env, ports=4)
    macs = ["02:00:00:00:00:0{}".format(i) for i in range(1, 4)]
    nics = [NIC(env, MACAddress(mac), name=mac) for mac in macs]
    counts = {mac: [] for mac in macs}
    for mac, nic in zip(macs, nics):
        nic.receive_handler = counts[mac].append
        switch.attach(nic.iface)
    nics[0].transmit(frame(macs[0], "ff:ff:ff:ff:ff:ff"))
    env.run()
    assert len(counts[macs[1]]) == 1
    assert len(counts[macs[2]]) == 1
    assert len(counts[macs[0]]) == 0


def test_switch_port_exhaustion():
    env = Environment()
    switch = Switch(env, ports=2)
    switch.attach(Interface(env, "h1"))
    switch.attach(Interface(env, "h2"))
    with pytest.raises(RuntimeError):
        switch.attach(Interface(env, "h3"))


def test_switch_min_ports():
    env = Environment()
    with pytest.raises(ValueError):
        Switch(env, ports=1)


def test_switch_mac_aging():
    """Entries expire after the aging time; traffic floods again until
    the address is relearned."""
    env = Environment()
    switch = Switch(env, ports=4, mac_aging_s=10.0)
    macs = ["02:00:00:00:00:0{}".format(i) for i in range(1, 3)]
    nics = [NIC(env, MACAddress(mac), name=mac) for mac in macs]
    for nic in nics:
        switch.attach(nic.iface)

    nics[0].transmit(frame(macs[0], macs[1]))
    env.run()
    nics[1].transmit(frame(macs[1], macs[0]))
    env.run()
    assert (switch.flooded, switch.forwarded) == (1, 1)  # macs[0] learned
    assert MACAddress(macs[0]) in switch._mac_table

    # Advance beyond the aging horizon: the entry expires lazily, on the
    # next frame for it, which floods.
    env.timeout(20.0)
    env.run()
    nics[1].transmit(frame(macs[1], macs[0]))
    env.run()
    assert (switch.flooded, switch.forwarded) == (2, 1)
    assert MACAddress(macs[0]) not in switch._mac_table

    # Relearn on the next frame from it; frames to it are forwarded again.
    nics[0].transmit(frame(macs[0], macs[1]))
    env.run()
    nics[1].transmit(frame(macs[1], macs[0]))
    env.run()
    assert (switch.flooded, switch.forwarded) == (2, 3)


def test_switch_aging_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Switch(env, ports=4, mac_aging_s=0)
