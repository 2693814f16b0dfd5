"""IP and MAC address value types.

Thin wrappers over integers with the usual dotted/colon text forms.
Using value types (rather than raw strings) catches a whole class of
wiring mistakes in the simulator at construction time.

Both types are interned: there is exactly one instance per value, made
by ``__new__`` the first time the value is seen, and returned by every
later construction from an int, a text form, an address of the same
type, a pickle or a copy.  Equal addresses are therefore the *same*
object, so the types define no ``__eq__``/``__hash__`` of their own —
the connection-table and ARP lookups several times per packet compare
and hash them in C, by identity.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple, Union

_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")

#: Parsed text forms, memoized: a simulation names a handful of hosts but
#: re-parses them at every packet/endpoint construction site.
_IP_PARSE_CACHE: Dict[str, int] = {}
_MAC_PARSE_CACHE: Dict[str, int] = {}

#: The one instance of each value, by value.
_IPS: Dict[int, "IPAddress"] = {}
_MACS: Dict[int, "MACAddress"] = {}


class IPAddress:
    """An IPv4 address."""

    __slots__ = ("_value",)

    _value: int

    def __new__(cls, address: Union[str, int, "IPAddress"]) -> "IPAddress":
        if isinstance(address, IPAddress):
            return address
        if isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFF:
                raise ValueError("IPv4 integer out of range: {}".format(address))
            value = address
        else:
            parsed = _IP_PARSE_CACHE.get(address)
            if parsed is None:
                match = _IP_RE.match(address)
                if not match:
                    raise ValueError("malformed IPv4 address: {!r}".format(address))
                octets = [int(part) for part in match.groups()]
                if any(octet > 255 for octet in octets):
                    raise ValueError("IPv4 octet out of range: {!r}".format(address))
                parsed = (
                    (octets[0] << 24)
                    | (octets[1] << 16)
                    | (octets[2] << 8)
                    | octets[3]
                )
                _IP_PARSE_CACHE[address] = parsed
            value = parsed
        ip = _IPS.get(value)
        if ip is None:
            ip = object.__new__(cls)
            ip._value = value
            # setdefault: of two threads making one value, one instance wins.
            ip = _IPS.setdefault(value, ip)
        return ip

    def __reduce__(self) -> Tuple[type, Tuple[int]]:
        # Unpickling and (deep)copying go back through __new__, so a
        # round trip returns the interned instance, not a second one.
        return IPAddress, (self._value,)

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return "{}.{}.{}.{}".format(
            (self._value >> 24) & 0xFF,
            (self._value >> 16) & 0xFF,
            (self._value >> 8) & 0xFF,
            self._value & 0xFF,
        )

    def __repr__(self) -> str:
        return "IPAddress({!r})".format(str(self))

    def packed(self) -> bytes:
        """The 4-byte big-endian wire form."""
        return self._value.to_bytes(4, "big")

    @classmethod
    def from_packed(cls, data: bytes) -> "IPAddress":
        """Parse the 4-byte big-endian wire form."""
        if len(data) != 4:
            raise ValueError("IPv4 wire form must be 4 bytes")
        return cls(int.from_bytes(data, "big"))


class MACAddress:
    """An Ethernet (EUI-48) address."""

    __slots__ = ("_value", "is_broadcast")

    BROADCAST_INT = 0xFFFFFFFFFFFF

    _value: int
    #: True for ff:ff:ff:ff:ff:ff; set once, when the value is interned.
    is_broadcast: bool

    def __new__(cls, address: Union[str, int, "MACAddress"]) -> "MACAddress":
        if isinstance(address, MACAddress):
            return address
        if isinstance(address, int):
            if not 0 <= address <= cls.BROADCAST_INT:
                raise ValueError("MAC integer out of range: {}".format(address))
            value = address
        else:
            parsed = _MAC_PARSE_CACHE.get(address)
            if parsed is None:
                if not _MAC_RE.match(address):
                    raise ValueError("malformed MAC address: {!r}".format(address))
                parsed = int(address.replace(":", ""), 16)
                _MAC_PARSE_CACHE[address] = parsed
            value = parsed
        mac = _MACS.get(value)
        if mac is None:
            mac = object.__new__(cls)
            mac._value = value
            mac.is_broadcast = value == cls.BROADCAST_INT
            mac = _MACS.setdefault(value, mac)
        return mac

    def __reduce__(self) -> Tuple[type, Tuple[int]]:
        return MACAddress, (self._value,)

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        raw = "{:012x}".format(self._value)
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return "MACAddress({!r})".format(str(self))

    def packed(self) -> bytes:
        """The 6-byte wire form."""
        return self._value.to_bytes(6, "big")

    @classmethod
    def from_packed(cls, data: bytes) -> "MACAddress":
        """Parse the 6-byte wire form."""
        if len(data) != 6:
            raise ValueError("MAC wire form must be 6 bytes")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def broadcast(cls) -> "MACAddress":
        """The Ethernet broadcast address."""
        return cls(cls.BROADCAST_INT)
