"""TCP connection splicing remap rules (§3.2 of the paper).

Gage splices two TCP connections into one:

- the *first-leg* connection, client ⇄ RDN, characterized by
  ``<ClientIP, ClientPort, ClientSeq, RDN_IP, 80, RDN_Seq>``;
- the *second-leg* connection, client ⇄ RPN (set up locally at the RPN by
  the local service manager), characterized by
  ``<ClientIP, ClientPort, ClientSeq, RPN_IP, 80, RPN_Seq>``.

The client's address, port, and sequence numbers are identical on both
legs; only the server-side IP and initial sequence number differ.  The
splice therefore reduces to two rewrites performed at the RPN:

- **outgoing** (RPN → client): source IP becomes the cluster-wide RDN IP
  and the server sequence number is shifted by
  ``delta = RDN_ISN − RPN_ISN`` (mod 2³²), so the packet appears to
  continue the first-leg connection;
- **incoming** (client → RPN): destination IP becomes the RPN's real IP
  and the client's ACK number is shifted by ``−delta``, fooling the RPN's
  TCP stack into thinking the packet was always addressed to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addresses import IPAddress, MACAddress
from repro.net.conn import Quadruple
from repro.net.packet import ACK_BIT, SEQ_SPACE, Packet


@dataclass
class SpliceRule:
    """The per-connection remapping state held by a local service manager.

    Parameters
    ----------
    client_quad:
        The connection as the client sees it (src = client, dst = cluster).
    cluster_ip:
        The single public IP of the whole cluster (the RDN's IP).
    rpn_ip:
        The real IP of the RPN servicing this connection.
    rdn_isn:
        The ISN the RDN chose when it emulated the first-leg handshake.
    rpn_isn:
        The ISN the RPN's own TCP stack chose on the second-leg handshake.
    client_mac:
        Where outgoing frames should be addressed at layer 2 (the client,
        or the router towards it).
    """

    client_quad: Quadruple
    cluster_ip: IPAddress
    rpn_ip: IPAddress
    rdn_isn: int
    rpn_isn: int
    client_mac: MACAddress
    rpn_mac: MACAddress
    #: Packets remapped in each direction (observability).
    outgoing_remapped: int = field(default=0)
    incoming_remapped: int = field(default=0)
    #: ``RDN_ISN − RPN_ISN`` in sequence space, fixed when the splice is made.
    seq_delta: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.seq_delta = (self.rdn_isn - self.rpn_isn) % SEQ_SPACE

    def matches_incoming(self, packet: Packet) -> bool:
        """True if ``packet`` is a client→cluster packet of this splice."""
        return (
            packet.src_ip == self.client_quad.src_ip
            and packet.src_port == self.client_quad.src_port
            and packet.dst_ip == self.client_quad.dst_ip
            and packet.dst_port == self.client_quad.dst_port
        )

    def matches_outgoing(self, packet: Packet) -> bool:
        """True if ``packet`` is an RPN→client packet of this splice."""
        return (
            packet.dst_ip == self.client_quad.src_ip
            and packet.dst_port == self.client_quad.src_port
            and packet.src_ip == self.rpn_ip
            and packet.src_port == self.client_quad.dst_port
        )

    def remap_incoming(self, packet: Packet) -> Packet:
        """Rewrite a client→cluster packet for the RPN's local stack."""
        self.incoming_remapped += 1
        ack = packet.ack
        if packet.flags._value_ & ACK_BIT:
            ack = (ack - self.seq_delta) % SEQ_SPACE
        return packet.copy(dst_ip=self.rpn_ip, dst_mac=self.rpn_mac, ack=ack)

    def remap_outgoing(self, packet: Packet) -> Packet:
        """Rewrite an RPN→client packet to impersonate the cluster IP."""
        self.outgoing_remapped += 1
        return packet.copy(
            src_ip=self.cluster_ip,
            seq=(packet.seq + self.seq_delta) % SEQ_SPACE,
            dst_mac=self.client_mac,
        )
