"""Tests for IP and MAC address value types."""

import pytest

from repro.net import IPAddress, MACAddress


def test_ip_parse_and_format():
    ip = IPAddress("192.168.1.200")
    assert str(ip) == "192.168.1.200"
    assert int(ip) == (192 << 24) | (168 << 16) | (1 << 8) | 200


def test_ip_from_int():
    assert str(IPAddress(0x0A000001)) == "10.0.0.1"


def test_ip_copy_constructor():
    ip = IPAddress("10.1.2.3")
    assert IPAddress(ip) == ip


def test_ip_rejects_malformed():
    for bad in ["10.0.0", "10.0.0.256", "a.b.c.d", "10..0.1", ""]:
        with pytest.raises(ValueError):
            IPAddress(bad)
    with pytest.raises(ValueError):
        IPAddress(-1)
    with pytest.raises(ValueError):
        IPAddress(2**32)


def test_ip_equality_and_hash():
    assert IPAddress("10.0.0.1") == IPAddress(0x0A000001)
    assert hash(IPAddress("10.0.0.1")) == hash(IPAddress("10.0.0.1"))
    assert IPAddress("10.0.0.1") != IPAddress("10.0.0.2")
    assert IPAddress("10.0.0.1") != "10.0.0.1"


def test_mac_parse_and_format():
    mac = MACAddress("02:00:5e:10:00:ff")
    assert str(mac) == "02:00:5e:10:00:ff"


def test_mac_from_int_roundtrip():
    mac = MACAddress(0x0200000000AB)
    assert MACAddress(str(mac)) == mac


def test_mac_rejects_malformed():
    for bad in ["02:00:00:00:00", "zz:00:00:00:00:00", "020000000000"]:
        with pytest.raises(ValueError):
            MACAddress(bad)
    with pytest.raises(ValueError):
        MACAddress(2**48)


def test_mac_broadcast():
    assert MACAddress.broadcast().is_broadcast
    assert str(MACAddress.broadcast()) == "ff:ff:ff:ff:ff:ff"
    assert not MACAddress("02:00:00:00:00:01").is_broadcast


def test_mac_equality_and_hash():
    assert MACAddress(5) == MACAddress(5)
    assert hash(MACAddress(5)) == hash(MACAddress(5))
    assert MACAddress(5) != MACAddress(6)
