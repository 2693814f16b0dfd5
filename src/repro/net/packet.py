"""Simulated Ethernet/IPv4/TCP packets.

Simulation-side code passes :class:`Packet` objects around directly; no
frame is ever serialized.  A packet carries the header fields Gage reads
and rewrites (addresses, ports, sequence numbers, flags) and its length
on the wire, :data:`ETH_IP_TCP_HEADER_LEN` plus its payload.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.net.addresses import IPAddress, MACAddress
from repro.net.conn import Quadruple

#: Bytes of headers on every simulated frame (Ethernet 14 + IPv4 20 + TCP 20).
ETH_IP_TCP_HEADER_LEN = 54

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
