"""Simulated Ethernet/IPv4/TCP packets with a real wire form.

Simulation-side code passes :class:`Packet` objects around directly (no
serialization on the hot path), but :meth:`Packet.pack` /
:meth:`Packet.unpack` implement genuine header encoding — 14-byte Ethernet
header, 20-byte IPv4 header with checksum, 20-byte TCP header with
checksum over the pseudo-header — so header handling can be property-tested
and the per-packet cost paths of Table 3 operate on realistic structures.
"""

from __future__ import annotations

import enum
import itertools
import struct
from typing import Optional

from repro.net.addresses import IPAddress, MACAddress
from repro.net.conn import Quadruple

#: Bytes of headers on every simulated frame (Ethernet 14 + IPv4 20 + TCP 20).
ETH_IP_TCP_HEADER_LEN = 54

#: EtherType for IPv4.
ETHERTYPE_IPV4 = 0x0800

#: TCP sequence-number space.
SEQ_SPACE = 1 << 32

_packet_ids = itertools.count(1)

#: :meth:`Packet.copy`'s "keep this packet's payload" (``None`` is a payload).
_KEEP = object()


class TCPFlags(enum.IntFlag):
    """The subset of TCP flags the simulator uses."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


#: Raw flag bits and composed flags for the per-packet paths, made once:
#: ``IntFlag.__contains__``/``__and__``/``__or__`` build enum machinery per
#: call, a measurable share of per-segment cost.
SYN_BIT = TCPFlags.SYN._value_
ACK_BIT = TCPFlags.ACK._value_
RST_BIT = TCPFlags.RST._value_
FIN_BIT = TCPFlags.FIN._value_
SYN_ACK = TCPFlags.SYN | TCPFlags.ACK
FIN_ACK = TCPFlags.FIN | TCPFlags.ACK
ACK_PSH = TCPFlags.ACK | TCPFlags.PSH


class Packet:
    """One simulated Ethernet frame carrying an IPv4/TCP segment.

    ``payload`` is an arbitrary Python object (the simulation avoids
    materializing page bytes); ``payload_len`` is the number of wire bytes
    it stands for and is what all timing math uses.

    A ``__slots__`` class rather than a dataclass: forwarding-path code
    (splicing remaps, RDN MAC rewrites) copies packets at every header
    mutation point, and :meth:`copy` plus attribute access are the per-hop
    cost that Table 3 measures.
    """

    __slots__ = (
        "src_mac",
        "dst_mac",
        "src_ip",
        "dst_ip",
        "src_port",
        "dst_port",
        "seq",
        "ack",
        "flags",
        "payload",
        "payload_len",
        "pid",
    )

    def __init__(
        self,
        src_mac: MACAddress,
        dst_mac: MACAddress,
        src_ip: IPAddress,
        dst_ip: IPAddress,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: TCPFlags = TCPFlags.NONE,
        payload: object = None,
        payload_len: int = 0,
        pid: Optional[int] = None,
    ) -> None:
        if not 0 <= src_port <= 0xFFFF:
            raise ValueError("src_port out of range: {}".format(src_port))
        if not 0 <= dst_port <= 0xFFFF:
            raise ValueError("dst_port out of range: {}".format(dst_port))
        if payload_len < 0:
            raise ValueError("negative payload_len")
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq % SEQ_SPACE
        self.ack = ack % SEQ_SPACE
        self.flags = flags
        self.payload = payload
        self.payload_len = payload_len
        self.pid = next(_packet_ids) if pid is None else pid

    def __repr__(self) -> str:
        names = [flag.name for flag in TCPFlags if flag and flag in self.flags]
        return "<pkt#{} {} [{}] seq={} ack={} len={}>".format(
            self.pid,
            self.quadruple(),
            "|".join(names) or "-",
            self.seq,
            self.ack,
            self.payload_len,
        )

    # -- identity -------------------------------------------------------

    def quadruple(self) -> Quadruple:
        """The connection key as carried in this packet's headers."""
        # tuple.__new__ skips the generated NamedTuple __new__ (keyword
        # processing); this runs once per classified/forwarded packet.
        return tuple.__new__(
            Quadruple, (self.src_ip, self.src_port, self.dst_ip, self.dst_port)
        )

    @property
    def total_len(self) -> int:
        """Wire length: all headers plus payload."""
        return ETH_IP_TCP_HEADER_LEN + self.payload_len

    def copy(
        self,
        *,
        src_mac: Optional[MACAddress] = None,
        dst_mac: Optional[MACAddress] = None,
        src_ip: Optional[IPAddress] = None,
        dst_ip: Optional[IPAddress] = None,
        src_port: Optional[int] = None,
        dst_port: Optional[int] = None,
        seq: Optional[int] = None,
        ack: Optional[int] = None,
        flags: Optional[TCPFlags] = None,
        payload: object = _KEEP,
        payload_len: Optional[int] = None,
    ) -> "Packet":
        """A field-for-field copy (fresh packet id) with optional overrides.

        This is the forwarding path's copy-on-mutate primitive: one
        positional constructor call, so an override is checked exactly
        like a constructor argument.  A field left out (``None``; for
        ``payload``, not passed) keeps this packet's value.
        """
        return Packet(
            self.src_mac if src_mac is None else src_mac,
            self.dst_mac if dst_mac is None else dst_mac,
            self.src_ip if src_ip is None else src_ip,
            self.dst_ip if dst_ip is None else dst_ip,
            self.src_port if src_port is None else src_port,
            self.dst_port if dst_port is None else dst_port,
            self.seq if seq is None else seq,
            self.ack if ack is None else ack,
            self.flags if flags is None else flags,
            self.payload if payload is _KEEP else payload,
            self.payload_len if payload_len is None else payload_len,
        )

    # -- wire form ------------------------------------------------------

    def pack(self, payload_bytes: Optional[bytes] = None) -> bytes:
        """Encode to real wire bytes.

        If ``payload_bytes`` is None, ``payload_len`` zero bytes stand in
        for the logical payload.
        """
        if payload_bytes is None:
            payload_bytes = b"\x00" * self.payload_len
        elif len(payload_bytes) != self.payload_len:
            raise ValueError("payload_bytes length disagrees with payload_len")

        eth = self.dst_mac.packed() + self.src_mac.packed() + struct.pack(
            "!H", ETHERTYPE_IPV4
        )

        ip_total = 20 + 20 + self.payload_len
        ip_wo_checksum = struct.pack(
            "!BBHHHBBH4s4s",
            0x45,            # version 4, IHL 5
            0,               # DSCP/ECN
            ip_total,
            self.pid & 0xFFFF,
            0x4000,          # DF, no fragmentation
            64,              # TTL
            6,               # protocol: TCP
            0,               # checksum placeholder
            self.src_ip.packed(),
            self.dst_ip.packed(),
        )
        ip_checksum = _internet_checksum(ip_wo_checksum)
        ip = ip_wo_checksum[:10] + struct.pack("!H", ip_checksum) + ip_wo_checksum[12:]

        tcp_wo_checksum = struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            5 << 4,          # data offset 5 words
            int(self.flags),
            65535,           # advertised window
            0,               # checksum placeholder
            0,               # urgent pointer
        )
        pseudo = (
            self.src_ip.packed()
            + self.dst_ip.packed()
            + struct.pack("!BBH", 0, 6, 20 + self.payload_len)
        )
        tcp_checksum = _internet_checksum(pseudo + tcp_wo_checksum + payload_bytes)
        tcp = (
            tcp_wo_checksum[:16]
            + struct.pack("!H", tcp_checksum)
            + tcp_wo_checksum[18:]
        )
        return eth + ip + tcp + payload_bytes

    @classmethod
    def unpack(cls, data: bytes) -> "Packet":
        """Decode wire bytes produced by :meth:`pack`.

        Verifies the IPv4 and TCP checksums and raises ``ValueError`` on
        any malformation.
        """
        if len(data) < ETH_IP_TCP_HEADER_LEN:
            raise ValueError("frame shorter than minimum header length")
        dst_mac = MACAddress.from_packed(data[0:6])
        src_mac = MACAddress.from_packed(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        if ethertype != ETHERTYPE_IPV4:
            raise ValueError("unsupported ethertype 0x{:04x}".format(ethertype))

        ip = data[14:34]
        if ip[0] != 0x45:
            raise ValueError("unsupported IP version/IHL")
        if _internet_checksum(ip) != 0:
            raise ValueError("bad IPv4 checksum")
        (ip_total,) = struct.unpack("!H", ip[2:4])
        protocol = ip[9]
        if protocol != 6:
            raise ValueError("not a TCP packet (protocol={})".format(protocol))
        src_ip = IPAddress.from_packed(ip[12:16])
        dst_ip = IPAddress.from_packed(ip[16:20])
        payload_len = ip_total - 40
        if payload_len < 0 or 14 + ip_total > len(data):
            raise ValueError("inconsistent IP total length")

        tcp = data[34:54]
        payload_bytes = data[54 : 54 + payload_len]
        pseudo = (
            src_ip.packed()
            + dst_ip.packed()
            + struct.pack("!BBH", 0, 6, 20 + payload_len)
        )
        if _internet_checksum(pseudo + tcp + payload_bytes) != 0:
            raise ValueError("bad TCP checksum")
        src_port, dst_port, seq, ack = struct.unpack("!HHII", tcp[0:12])
        flags = TCPFlags(tcp[13])
        return cls(
            src_mac=src_mac,
            dst_mac=dst_mac,
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload=payload_bytes if payload_len else None,
            payload_len=payload_len,
        )


def _internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF
