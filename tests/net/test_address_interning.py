"""Interned addresses against the value-equality classes they replaced.

``ReferenceIP`` and ``ReferenceMAC`` are ``IPAddress``/``MACAddress`` as
they were before interning: a new object per construction, ``__eq__``
and ``__hash__`` on the integer value.  Interning is exact when, for
any two inputs, the interned objects are *the same object* exactly when
the reference objects are *equal*, and everything else observable —
text, integer and wire forms, ``is_broadcast``, and the type and message
of every rejection — is the reference's.  Copies, pickles and deep
copies must come back as the interned instance.

The properties below are pinned with ``@seed``.  They kill, among
others, an intern table keyed on the raw input rather than the value,
a class without ``__reduce__``, ``IPAddress(ip)`` returning a new
object, and ``is_broadcast`` computed from the wrong constant.
"""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.net import IPAddress, MACAddress

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PACKET_FILE = ROOT / "tests" / "integration" / "golden_packet.sha256"

_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")


class ReferenceIP:
    """``IPAddress`` before interning (without its parse memo)."""

    def __init__(self, address):
        if isinstance(address, (IPAddress, ReferenceIP)):
            self._value = address._value
        elif isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFF:
                raise ValueError("IPv4 integer out of range: {}".format(address))
            self._value = address
        else:
            match = _IP_RE.match(address)
            if not match:
                raise ValueError("malformed IPv4 address: {!r}".format(address))
            octets = [int(part) for part in match.groups()]
            if any(octet > 255 for octet in octets):
                raise ValueError("IPv4 octet out of range: {!r}".format(address))
            self._value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]

    def __int__(self):
        return self._value

    def __str__(self):
        value = self._value
        return "{}.{}.{}.{}".format(
            (value >> 24) & 0xFF, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF
        )

    def __eq__(self, other):
        return isinstance(other, ReferenceIP) and self._value == other._value

    def __hash__(self):
        return hash(("ip", self._value))


class ReferenceMAC:
    """``MACAddress`` before interning (without its parse memo)."""

    BROADCAST_INT = 0xFFFFFFFFFFFF

    def __init__(self, address):
        if isinstance(address, (MACAddress, ReferenceMAC)):
            self._value = address._value
        elif isinstance(address, int):
            if not 0 <= address <= self.BROADCAST_INT:
                raise ValueError("MAC integer out of range: {}".format(address))
            self._value = address
        else:
            if not _MAC_RE.match(address):
                raise ValueError("malformed MAC address: {!r}".format(address))
            self._value = int(address.replace(":", ""), 16)

    def __int__(self):
        return self._value

    def __str__(self):
        raw = "{:012x}".format(self._value)
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __eq__(self, other):
        return isinstance(other, ReferenceMAC) and self._value == other._value

    def __hash__(self):
        return hash(("mac", self._value))

    @property
    def is_broadcast(self):
        return self._value == self.BROADCAST_INT


def outcome(cls, address):
    """The object ``cls(address)`` makes, or its error as (type, message)."""
    try:
        return cls(address)
    except Exception as exc:  # the reference's error is the expected one
        return (type(exc), str(exc))


#: Ways back to an address from an address; each must return the same object.
ROUND_TRIPS = {
    "none": lambda a: a,
    "construct": lambda a: type(a)(a),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "deepcopy in a tuple": lambda a: copy.deepcopy((a, [a]))[1][0],
    **{
        "pickle {}".format(protocol): (
            lambda a, protocol=protocol: pickle.loads(pickle.dumps(a, protocol))
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


def ip_spellings(value):
    """Text and integer spellings of one IPv4 value, some zero-padded."""
    octets = [(value >> shift) & 0xFF for shift in (24, 16, 8, 0)]
    widths = st.lists(st.integers(1, 3), min_size=4, max_size=4)
    padded = widths.map(
        lambda ws: ".".join("{:0{}d}".format(o, max(w, len(str(o)))) for o, w in zip(octets, ws))
    )
    return st.one_of(st.just(value), padded)


ip_values = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.sampled_from([0, 1, 0x0A000001, 0xFFFFFFFF]),
)
ip_inputs = st.one_of(
    ip_values.flatmap(ip_spellings),
    st.integers(-3, 3),
    st.integers(0xFFFFFFFF - 2, 0xFFFFFFFF + 3),
    st.tuples(*[st.integers(0, 999)] * 4).map(lambda t: "{}.{}.{}.{}".format(*t)),
    st.sampled_from(
        ["010.000.000.001", "10.0.0.1", "10.0.0", "10.0.0.256", "a.b.c.d", "",
         "10..0.1", "1.2.3.4.5", " 1.2.3.4", "0x0a.0.0.1", None, 1.5]
    ),
)
#: Two spellings of one value, so equal pairs are common, not a fluke.
ip_pairs = st.one_of(
    st.tuples(ip_inputs, ip_inputs),
    ip_values.flatmap(lambda v: st.tuples(ip_spellings(v), ip_spellings(v))),
)


def mac_spellings(value):
    raw = "{:012x}".format(value)
    text = ":".join(raw[i : i + 2] for i in range(0, 12, 2))
    return st.sampled_from([value, text, text.upper()])


mac_values = st.one_of(
    st.integers(0, 0xFFFFFFFFFFFF),
    st.sampled_from([0, 5, 0xFFFFFFFF, 0xFFFFFFFFFFFF, 0xFFFFFFFFFFFE]),
)
mac_inputs = st.one_of(
    mac_values.flatmap(mac_spellings),
    st.integers(-2, 2),
    st.integers(0xFFFFFFFFFFFF - 1, 0xFFFFFFFFFFFF + 2),
    st.sampled_from(
        ["02:00:00:00:00", "zz:00:00:00:00:00", "020000000000", "ff:ff:ff:ff:ff:ff",
         "FF:FF:FF:FF:FF:FF", "", None]
    ),
)
mac_pairs = st.one_of(
    st.tuples(mac_inputs, mac_inputs),
    mac_values.flatmap(lambda v: st.tuples(mac_spellings(v), mac_spellings(v))),
)


def check_against_reference(cls, reference, pair, trip, extra):
    left, right = (outcome(cls, x) for x in pair)
    ref_left, ref_right = (outcome(reference, x) for x in pair)
    for got, ref in ((left, ref_left), (right, ref_right)):
        if isinstance(ref, tuple):
            assert got == ref  # same error type and message
        else:
            assert type(got) is cls
            assert (str(got), int(got)) == (str(ref), int(ref))
            assert [getattr(got, name) for name in extra] == [getattr(ref, name) for name in extra]
    if isinstance(ref_left, tuple) or isinstance(ref_right, tuple):
        return
    assert (ROUND_TRIPS[trip](left) is right) == (ref_left == ref_right)
    assert ROUND_TRIPS[trip](left) is left


@seed(20030521)
@settings(max_examples=400, deadline=None)
@given(pair=ip_pairs, trip=st.sampled_from(sorted(ROUND_TRIPS)))
def test_interned_ip_is_identity_exactly_where_the_reference_is_equal(pair, trip):
    check_against_reference(IPAddress, ReferenceIP, pair, trip, ())


@seed(20030521)
@settings(max_examples=400, deadline=None)
@given(pair=mac_pairs, trip=st.sampled_from(sorted(ROUND_TRIPS)))
def test_interned_mac_is_identity_exactly_where_the_reference_is_equal(pair, trip):
    check_against_reference(MACAddress, ReferenceMAC, pair, trip, ("is_broadcast",))


def test_spellings_of_one_value_are_one_instance():
    assert IPAddress("010.000.000.001") is IPAddress("10.0.0.1") is IPAddress(0x0A000001)
    assert MACAddress("FF:FF:FF:FF:FF:FF") is MACAddress.broadcast()
    assert IPAddress(0x0A000001) is not IPAddress(0x0A000002)


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_round_trips_return_the_interned_instance(trip):
    for address in (IPAddress("192.0.2.1"), MACAddress("02:00:5e:00:00:01")):
        assert ROUND_TRIPS[trip](address) is address


def test_is_broadcast_is_set_for_the_broadcast_value_only():
    assert MACAddress(0xFFFFFFFFFFFF).is_broadcast is True
    for value in (0, 0xFFFFFFFF, 0xFFFFFFFFFFFE, 0x7FFFFFFFFFFF):
        assert MACAddress(value).is_broadcast is False


def test_addresses_are_unequal_to_other_types():
    assert IPAddress(5) != MACAddress(5)
    assert IPAddress("10.0.0.1") != "10.0.0.1"
    assert MACAddress(5) != 5


def test_packet_golden_digest_is_the_same_in_fresh_interpreters():
    """Identity hashing varies from one interpreter to the next; the run
    must not.  Two hash seeds, two processes, the committed digest."""
    script = (
        "from repro.harness.golden import accounting_digest, golden_packet_cluster\n"
        "print(accounting_digest(golden_packet_cluster()))\n"
    )
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
            check=True,
        )
        digests.append(done.stdout.strip())
    assert digests == [GOLDEN_PACKET_FILE.read_text().strip()] * 2
