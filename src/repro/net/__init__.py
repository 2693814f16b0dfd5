"""Packet-level network substrate.

Models the testbed of the paper: hosts with NICs, full-duplex links, a
store-and-forward learning switch, a simplified TCP state machine
(3-way handshake, segmented data transfer with cumulative ACKs, FIN
teardown), and the sequence-number/address remapping used by Gage's
distributed TCP connection splicing.

Layering on a simulated host::

    process  <->  HostStack (TCP)  <->  [frame filter]  <->  NIC  <->  link

The optional frame filter slot is where Gage's RDN logic and the RPN
local service manager live (see :mod:`repro.core`).
"""

from repro.net.addresses import IPAddress, MACAddress
from repro.net.conn import Quadruple
from repro.net.link import Interface
from repro.net.nic import NIC, FrameFilter
from repro.net.packet import ETH_IP_TCP_HEADER_LEN, Packet, TCPFlags
from repro.net.splicing import SpliceRule
from repro.net.switch import Switch
from repro.net.tcp import Connection, HostStack, TCPState
from repro.net.tracer import CapturedPacket, PacketTracer

__all__ = [
    "CapturedPacket",
    "Connection",
    "ETH_IP_TCP_HEADER_LEN",
    "PacketTracer",
    "FrameFilter",
    "HostStack",
    "IPAddress",
    "Interface",
    "MACAddress",
    "NIC",
    "Packet",
    "Quadruple",
    "SpliceRule",
    "Switch",
    "TCPFlags",
    "TCPState",
]
