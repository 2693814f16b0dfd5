"""Tests for packet structure."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.net import ETH_IP_TCP_HEADER_LEN, IPAddress, MACAddress, Packet, TCPFlags
from repro.net.conn import Quadruple


def make_packet(**overrides):
    fields = dict(
        src_mac=MACAddress("02:00:00:00:00:01"),
        dst_mac=MACAddress("02:00:00:00:00:02"),
        src_ip=IPAddress("10.0.0.1"),
        dst_ip=IPAddress("10.0.0.2"),
        src_port=12345,
        dst_port=80,
        seq=1000,
        ack=2000,
        flags=TCPFlags.ACK,
        payload_len=100,
    )
    fields.update(overrides)
    return Packet(**fields)


def test_total_len_includes_headers():
    packet = make_packet(payload_len=100)
    assert packet.total_len == ETH_IP_TCP_HEADER_LEN + 100


def test_quadruple():
    packet = make_packet()
    quad = packet.quadruple()
    assert quad == Quadruple(
        IPAddress("10.0.0.1"), 12345, IPAddress("10.0.0.2"), 80
    )
    assert quad.reversed() == Quadruple(
        IPAddress("10.0.0.2"), 80, IPAddress("10.0.0.1"), 12345
    )


def test_seq_ack_wrap_mod_2_32():
    packet = make_packet(seq=2**32 + 5, ack=2**33 + 7)
    assert packet.seq == 5
    assert packet.ack == 7


def test_port_validation():
    with pytest.raises(ValueError):
        make_packet(src_port=65536)
    with pytest.raises(ValueError):
        make_packet(dst_port=-1)


def test_negative_payload_len_rejected():
    with pytest.raises(ValueError):
        make_packet(payload_len=-1)


def test_copy_gets_fresh_pid():
    packet = make_packet()
    clone = packet.copy(seq=9999)
    assert clone.pid != packet.pid
    assert clone.seq == 9999
    assert clone.src_ip == packet.src_ip
    assert packet.seq == 1000  # original untouched


def test_copy_checks_overrides_like_the_constructor():
    # The copy used to set overrides after construction, unchecked: this
    # returned a packet with src_port 70000 and total_len 49.
    packet = make_packet()
    with pytest.raises(ValueError):
        packet.copy(src_port=70000, payload_len=-5)
    with pytest.raises(ValueError):
        packet.copy(dst_port=-1)
    with pytest.raises(ValueError):
        packet.copy(payload_len=-1)
    with pytest.raises(TypeError):
        packet.copy(window=1024)


FIELDS = (
    "src_mac", "dst_mac", "src_ip", "dst_ip", "src_port", "dst_port",
    "seq", "ack", "flags", "payload", "payload_len",
)


def reference_copy(packet, **changes):
    """The ``Packet.copy`` this one replaced: construct, then overwrite."""
    new = Packet(*(getattr(packet, name) for name in FIELDS))
    if changes:
        for name, value in changes.items():
            setattr(new, name, value)
        new.seq %= 2**32
        new.ack %= 2**32
    return new


overrides = st.fixed_dictionaries(
    {},
    optional={
        "src_mac": st.sampled_from([MACAddress(1), MACAddress.broadcast()]),
        "dst_mac": st.sampled_from([MACAddress(2), MACAddress(3)]),
        "src_ip": st.sampled_from([IPAddress("10.0.0.9"), IPAddress(0)]),
        "dst_ip": st.sampled_from([IPAddress("10.0.0.1"), IPAddress(7)]),
        "src_port": st.integers(0, 0xFFFF),
        "dst_port": st.integers(0, 0xFFFF),
        "seq": st.integers(-(2**33), 2**34),
        "ack": st.integers(-(2**33), 2**34),
        "flags": st.sampled_from(list(TCPFlags) + [TCPFlags.ACK | TCPFlags.PSH]),
        "payload": st.sampled_from([None, "page", 0, b""]),
        "payload_len": st.integers(0, 1460),
    },
)


@seed(20030521)
@settings(max_examples=300, deadline=None)
@given(changes=overrides, payload=st.sampled_from([None, "req"]))
def test_copy_equals_the_setattr_copy_on_valid_overrides(changes, payload):
    packet = make_packet(payload=payload)
    expected = reference_copy(packet, **changes)
    got = packet.copy(**changes)
    assert [getattr(got, name) for name in FIELDS] == [
        getattr(expected, name) for name in FIELDS
    ]
    assert got.pid != packet.pid


def test_repr_contains_flags():
    packet = make_packet(flags=TCPFlags.SYN)
    assert "SYN" in repr(packet)
