"""The RPN local service manager and accounting agent (§3.2, §3.5).

The local service manager (LSM) "resides above the Ethernet driver but
below the IP layer" of each back-end node.  It performs, per Figure 2:

- the **second-leg TCP setup** (steps 6-8): on receiving a dispatch order
  it replays the client's SYN into the RPN's own TCP stack, captures and
  suppresses the stack's SYN-ACK (recording the RPN ISN), answers with
  the client's ACK, and finally injects the buffered URL request (step 9)
  — all locally, with no wire traffic;
- the **sequence-number/address remapping** of every subsequent packet in
  both directions, using :class:`~repro.net.splicing.SpliceRule`.

The accounting agent implements §3.5: every accounting cycle it walks the
process tree, sums each charging entity's usage since the last walk, and
sends the per-subscriber report (plus completion counts) to the RDN.
The walk covers the subtrees of the sites the web server saw a request
for since the last walk (:meth:`~repro.cluster.webserver.WebServer.take_touched`):
no other subtree was charged, so its delta is exactly zero and a zero
delta was never reported.  The message's machine total is the sum of
the deltas it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.cluster.webserver import WebServer
from repro.core.control import DispatchOrder
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.grps import ResourceVector
from repro.core.topology import grps_capacity
from repro.net.addresses import IPAddress, MACAddress
from repro.net.conn import Quadruple
from repro.net.nic import FrameFilter
from repro.net.packet import ACK_BIT, ACK_PSH, SEQ_SPACE, SYN_BIT, Packet, TCPFlags

#: Raw SYN|ACK bits: every outbound frame from the local stack passes
#: through :meth:`LocalSpliceModule.outbound`, and ``IntFlag`` membership
#: tests allocate per check.
_SYN_ACK_BITS = SYN_BIT | ACK_BIT
from repro.net.splicing import SpliceRule
from repro.net.tcp import HostStack
from repro.sim.engine import Environment
from repro.telemetry.registry import get_registry


@dataclass
class _PendingSplice:
    """Second-leg handshake in progress: waiting to capture the RPN ISN."""

    order: DispatchOrder


class LocalServiceManager(FrameFilter):
    """The below-IP frame filter on one back-end node."""

    def __init__(
        self,
        env: Environment,
        stack: HostStack,
        rpn_ip: IPAddress,
        rpn_mac: MACAddress,
        cluster_ip: IPAddress,
        rule_linger_s: float = 2.0,
    ) -> None:
        self.env = env
        self.stack = stack
        self.rpn_ip = rpn_ip
        self.rpn_mac = rpn_mac
        self.cluster_ip = cluster_ip
        #: How long a splice rule outlives its connection, so teardown
        #: retransmissions still remap before the state is reclaimed.
        self.rule_linger_s = rule_linger_s
        #: Splice rules keyed by the client-side quadruple (for inbound).
        self._rules_in: Dict[Quadruple, SpliceRule] = {}
        #: The same rules keyed by (client_ip, client_port) (for outbound).
        self._rules_out: Dict[Tuple[IPAddress, int], SpliceRule] = {}
        self._pending: Dict[Tuple[IPAddress, int], _PendingSplice] = {}
        self.splices_established = 0
        self.orders_received = 0
        stack.attach_filter(self)

    def __repr__(self) -> str:
        return "<LocalServiceManager {} splices={}>".format(
            self.rpn_ip, self.splices_established
        )

    def rule_for(self, quad: Quadruple) -> Optional[SpliceRule]:
        """The splice rule for a client quadruple, if established."""
        return self._rules_in.get(quad)

    # -- FrameFilter hooks -------------------------------------------------------

    def inbound(self, packet: Packet) -> Optional[Packet]:
        if isinstance(packet.payload, DispatchOrder):
            self._start_second_leg(packet.payload)
            return None
        rule = self._rules_in.get(packet.quadruple())
        if rule is not None:
            return rule.remap_incoming(packet)
        return packet

    def outbound(self, packet: Packet) -> Optional[Packet]:
        key = (packet.dst_ip, packet.dst_port)
        pending = self._pending.get(key)
        if (
            pending is not None
            and packet.flags._value_ & _SYN_ACK_BITS == _SYN_ACK_BITS
        ):
            self._complete_second_leg(pending, rpn_isn=packet.seq)
            return None  # the SYN-ACK never reaches the wire
        rule = self._rules_out.get(key)
        if rule is not None:
            return rule.remap_outgoing(packet)
        return packet

    # -- the Figure 2 local handshake (steps 6-9) -----------------------------------

    def _start_second_leg(self, order: DispatchOrder) -> None:
        self.orders_received += 1
        key = (order.quad.src_ip, order.quad.src_port)
        self._pending[key] = _PendingSplice(order)
        syn = Packet(
            src_mac=order.client_mac,
            dst_mac=self.rpn_mac,
            src_ip=order.quad.src_ip,
            dst_ip=self.rpn_ip,
            src_port=order.quad.src_port,
            dst_port=order.quad.dst_port,
            seq=order.client_isn,
            flags=TCPFlags.SYN,
        )
        # Step 6: the stack believes the client connected directly; its
        # SYN-ACK (step 7) is captured synchronously by outbound().
        self.stack.inject(syn)

    def _complete_second_leg(self, pending: _PendingSplice, rpn_isn: int) -> None:
        order = pending.order
        key = (order.quad.src_ip, order.quad.src_port)
        del self._pending[key]
        rule = SpliceRule(
            client_quad=order.quad,
            cluster_ip=self.cluster_ip,
            rpn_ip=self.rpn_ip,
            rdn_isn=order.rdn_isn,
            rpn_isn=rpn_isn,
            client_mac=order.client_mac,
            rpn_mac=self.rpn_mac,
        )
        self._rules_in[order.quad] = rule
        self._rules_out[key] = rule
        self.splices_established += 1
        # Reclaim the splice state once the local connection fully closes
        # (plus a linger for retransmitted teardown packets).
        local_quad = Quadruple(
            self.rpn_ip, order.quad.dst_port, order.quad.src_ip, order.quad.src_port
        )
        conn = self.stack.connections.get(local_quad)
        if conn is not None:
            quad = order.quad
            conn.closed.callbacks.append(
                lambda _evt: self.env.call_later(
                    self.rule_linger_s, self.forget, quad
                )
            )
        # Step 8: complete the local handshake with the client's ACK.
        ack = Packet(
            src_mac=order.client_mac,
            dst_mac=self.rpn_mac,
            src_ip=order.quad.src_ip,
            dst_ip=self.rpn_ip,
            src_port=order.quad.src_port,
            dst_port=order.quad.dst_port,
            seq=(order.client_isn + 1) % SEQ_SPACE,
            ack=(rpn_isn + 1) % SEQ_SPACE,
            flags=TCPFlags.ACK,
        )
        self.stack.inject(ack)
        # Step 9: replay the buffered URL request into the stack.
        url = Packet(
            src_mac=order.client_mac,
            dst_mac=self.rpn_mac,
            src_ip=order.quad.src_ip,
            dst_ip=self.rpn_ip,
            src_port=order.quad.src_port,
            dst_port=order.quad.dst_port,
            seq=(order.client_isn + 1) % SEQ_SPACE,
            ack=(rpn_isn + 1) % SEQ_SPACE,
            flags=ACK_PSH,
            payload=order.request,
            payload_len=order.request_bytes,
        )
        self.stack.inject(url)

    def forget(self, quad: Quadruple) -> None:
        """Drop the splice state of one closed connection."""
        self._rules_in.pop(quad, None)
        self._rules_out.pop((quad.src_ip, quad.src_port), None)


#: Delivers an accounting message to the RDN (transport-specific).
FeedbackSender = Callable[[AccountingMessage], None]


class RPNAccountingAgent:
    """Periodic per-subscriber resource-usage reporting (§3.5)."""

    def __init__(
        self,
        env: Environment,
        rpn_id: str,
        webserver: WebServer,
        cycle_s: float,
        send_fn: FeedbackSender,
        phase_offset_s: float = 0.0,
        capacity_per_s: Optional[ResourceVector] = None,
    ) -> None:
        if cycle_s <= 0:
            raise ValueError("accounting cycle must be positive")
        if phase_offset_s < 0:
            raise ValueError("negative phase offset")
        if capacity_per_s is not None:
            # Publish the node's declared capacity so heterogeneous
            # clusters are legible in telemetry snapshots.  Recording
            # only: no events, no RNG — digest-safe.
            get_registry().gauge(
                "repro.cluster.node.capacity", node=rpn_id
            ).set(grps_capacity(capacity_per_s))
        self.env = env
        self.rpn_id = rpn_id
        self.webserver = webserver
        self.cycle_s = cycle_s
        self.send_fn = send_fn
        #: Nodes do not tick in lockstep; each agent's cycle is offset.
        self.phase_offset_s = phase_offset_s
        #: Health flag driven by fault injection: a crashed or hung node
        #: sends no accounting messages — the silence is exactly what the
        #: RDN's failure detector keys on.
        self.up = True
        self.messages_sent = 0
        self._last_usage: Dict[str, ResourceVector] = {}
        self._last_completed: Dict[str, int] = {}
        self._proc = env.process(self._loop())

    def _loop(self):
        if self.phase_offset_s:
            yield self.env.timeout(self.phase_offset_s)
        while True:
            yield self.env.timeout(self.cycle_s)
            if not self.up:
                continue
            message = self.collect()
            self.send_fn(message)
            self.messages_sent += 1

    def resync(self) -> None:
        """Re-baseline the usage counters at the current instant.

        Called when a crashed node restarts: whatever usage and
        completions accumulated before/during the outage must never be
        reported — the RDN already backed those requests out and
        re-dispatched them elsewhere, so reporting them again would
        double-charge the subscribers.  Sites untouched since the last
        walk are at their baseline already.
        """
        self.webserver.machine.settle_accounting()
        for site in self.webserver.take_touched():
            self._last_usage[site.host] = site.master.subtree_usage()
            self._last_completed[site.host] = site.completed

    def collect(self) -> AccountingMessage:
        """Walk the process tree and build this cycle's report."""
        now = self.env.now
        self.webserver.machine.settle_accounting()
        self.webserver.machine.telemetry_sample()
        per_subscriber: Dict[str, RPNUsageReport] = {}
        total = ResourceVector.ZERO
        for site in self.webserver.take_touched():
            host = site.host
            usage = site.master.subtree_usage()
            delta = usage - self._last_usage.get(host, ResourceVector.ZERO)
            self._last_usage[host] = usage
            completed_delta = site.completed - self._last_completed.get(host, 0)
            self._last_completed[host] = site.completed
            if completed_delta > 0 or delta != ResourceVector.ZERO:
                per_subscriber[host] = RPNUsageReport(delta, completed_delta)
                total = total + delta
        return AccountingMessage(
            rpn_id=self.rpn_id,
            cycle_start_s=now - self.cycle_s,
            cycle_end_s=now,
            total_usage=total,
            per_subscriber=per_subscriber,
        )
