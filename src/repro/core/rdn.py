"""The primary request distribution node (§3.2-3.4).

The RDN is the single entry point of the cluster: every inbound packet is
classified (§3.3), handshakes are emulated without involving any TCP
stack, URL requests are buffered in per-subscriber queues, the scheduler
dispatches them to back-end RPNs (§3.4), and all other packets are bridged
at layer 2 through the connection table.

The same class serves both transports:

- **packet mode** — install :meth:`handle_packet` as a promiscuous NIC's
  receive handler and give the constructor a ``packet_dispatch`` context;
- **flow mode** — call :meth:`submit_request` with request objects and
  provide a ``dispatch_fn`` that delivers them to back-end servers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.accounting import RDNAccounting
from repro.core.classifier import PacketClass, RequestClassifier
from repro.core.config import HEDGE_OFF, GageConfig
from repro.core.conntable import LINGER_S, ConnectionTable
from repro.core.control import (
    CONTROL_PAYLOAD_LEN,
    CONTROL_PORT,
    DelegateHandshake,
    DispatchOrder,
    HandshakeComplete,
)
from repro.core.feedback import AccountingMessage
from repro.core.grps import ResourceVector
from repro.core.hedge import HedgeHooks, HedgeManager
from repro.core.metrics import (
    CONNECTIONS_RESET,
    DELEGATE_TIMEOUT,
    NODE_DOWN,
    NODE_UP,
    REQUESTS_REQUEUED,
    SECONDARY_DOWN,
    SECONDARY_UP,
    FailureLog,
)
from repro.core.node_scheduler import NodeScheduler
from repro.core.placement import PlacementEngine
from repro.core.queues import SubscriberQueues
from repro.core.scheduler import RequestScheduler
from repro.core.subscriber import Subscriber
from repro.net.addresses import IPAddress, MACAddress
from repro.net.conn import Quadruple
from repro.net.nic import NIC
from repro.net.packet import ACK_BIT, FIN_BIT, RST_BIT, SEQ_SPACE, SYN_ACK, Packet, TCPFlags

#: Raw bit mask for the forwarding fast path: ``IntFlag.__and__`` builds
#: an enum member per operation, which costs more than the rest of a
#: connection-table hit put together.
_TEARDOWN_BITS = FIN_BIT | RST_BIT
from repro.sim.engine import Environment
from repro.telemetry.metrics import Histogram
from repro.telemetry.registry import get_registry

#: How long the primary waits for a secondary's ``HandshakeComplete``
#: before emulating the handshake itself.
DELEGATE_TIMEOUT_S = 0.25

#: Consecutive delegation timeouts after which a secondary RDN leaves the
#: delegation rotation until revived.
SECONDARY_FAILURE_LIMIT = 2


@dataclass
class HalfOpenConnection:
    """First-leg handshake state the RDN keeps per new client connection."""

    quad: Quadruple
    client_isn: int
    rdn_isn: int
    client_mac: MACAddress
    established: bool = False
    request_enqueued: bool = False


@dataclass
class PendingRequest:
    """A queued URL request plus the splice metadata of its connection."""

    subscriber: str
    request: object
    request_bytes: int
    quad: Quadruple
    client_isn: int
    rdn_isn: int
    client_mac: MACAddress
    enqueued_at: float


@dataclass
class _Delegation:
    """One handshake pushed to a secondary RDN, awaiting completion."""

    mac: MACAddress
    client_isn: int
    client_mac: MACAddress


@dataclass
class RDNOpCounters:
    """Operation counts for the overhead/utilization analysis (§4.2-4.3)."""

    packets: int = 0
    classifications: int = 0
    connection_setups: int = 0
    forwards: int = 0
    enqueues: int = 0
    dispatches: int = 0
    feedback_messages: int = 0
    absorbed: int = 0
    rejected: int = 0


class PrimaryRDN:
    """The front-end request distribution node."""

    def __init__(
        self,
        env: Environment,
        config: GageConfig,
        cluster_ip: IPAddress,
        subscribers: List[Subscriber],
        host_map: Optional[Dict[str, str]] = None,
        isn_base: int = 900_000,
        placement: Optional[PlacementEngine] = None,
    ) -> None:
        if placement is not None and placement.generic != config.generic_request:
            raise ValueError(
                "placement engine's generic request {} differs from the "
                "config's {}".format(placement.generic, config.generic_request)
            )
        self.env = env
        self.config = config
        self.cluster_ip = cluster_ip
        self.conntable = ConnectionTable()
        # One SubscriberTable spans the queues, the accounting, and the
        # classifier, so every component resolves a name to the same
        # dense interned id.
        self.queues = SubscriberQueues()
        self.accounting = RDNAccounting(table=self.queues.table)
        self.classifier = RequestClassifier(table=self.queues.table)
        self.node_scheduler = NodeScheduler(
            policy=config.node_policy, window_s=config.dispatch_window_s
        )
        #: The placement / admission-control layer (extension; ``None``
        #: is the paper's admit-everything model): subscribers are
        #: embedded onto a primary RPN plus backup reservations, and
        #: dispatch follows the embedding.
        self.placement = placement
        #: Subscribers awaiting embedding because no RPN had been
        #: registered yet when they arrived (constructor-time
        #: subscribers); drained by :meth:`add_rpn`.
        self._placement_deferred: List[Subscriber] = []
        self.scheduler = RequestScheduler(
            config,
            self.queues,
            self.accounting,
            self.node_scheduler,
            dispatch_fn=self._dispatch,
            placement=self.placement,
        )
        self.ops = RDNOpCounters()
        self._half_open: Dict[Quadruple, HalfOpenConnection] = {}
        self._rpn_macs: Dict[str, MACAddress] = {}
        self._rpn_ips: Dict[str, IPAddress] = {}
        self._isn = isn_base
        self.nic: Optional[NIC] = None
        #: Flow-mode delivery: (request, rpn_id, subscriber) -> None.
        self.flow_dispatch: Optional[Callable[[object, str, str], None]] = None
        #: Mid-service abort, installed by the cluster harness when the
        #: transport supports it: (request, rpn_id) -> cancelled.
        self.cancel_service: Optional[Callable[[object, str], bool]] = None
        #: The hedging layer — only constructed when the policy is on,
        #: so default runs carry zero extra state or events.
        self.hedges: Optional[HedgeManager] = None
        if config.hedge_policy != HEDGE_OFF:
            self.hedges = HedgeManager(
                lambda: env.now,
                env.call_later,
                config,
                HedgeHooks(
                    pick_clone=self._pick_clone_node,
                    dispatch_clone=self._dispatch_clone,
                    cancel=self._cancel_copy,
                ),
                self.accounting,
                self.node_scheduler,
            )
        #: Secondary RDNs available for handshake offload, by MAC.
        self._secondaries: List[MACAddress] = []
        self._next_secondary = 0
        self._delegated: Dict[Quadruple, _Delegation] = {}
        #: Consecutive delegation timeouts per secondary; reset on any
        #: completed handshake, ejection at ``SECONDARY_FAILURE_LIMIT``.
        self._secondary_failures: Dict[MACAddress, int] = {}
        #: URL requests that raced ahead of their HandshakeComplete.
        self._awaiting_handshake: Dict[Quadruple, Packet] = {}
        #: Failure-detection and recovery event ledger.
        self.failures = FailureLog()
        #: Last accounting-message arrival per RPN.  A node enters the
        #: heartbeat watch only after its *first* message — so clusters
        #: run without accounting agents (many unit tests) never
        #: false-positive.
        self._last_feedback: Dict[str, float] = {}
        #: Dispatched-but-unreported requests per (rpn, subscriber), in
        #: dispatch order, so a node death can re-enqueue exactly the
        #: requests that died with it.
        self._in_flight: Dict[str, Dict[str, Deque[object]]] = {}
        #: Completion log fed by accounting messages: (time, subscriber, count).
        self.completion_log: List[Tuple[float, str, int]] = []
        registry = get_registry()
        self._tm_packets = registry.counter("repro.core.rdn_packets")
        self._tm_dispatches = registry.counter("repro.core.rdn_dispatches")
        self._tm_feedback = registry.counter("repro.core.feedback_messages")
        self._tm_node_down = registry.counter("repro.core.node_down")
        self._tm_node_up = registry.counter("repro.core.node_up")
        self._tm_report_lag = registry.histogram("repro.core.report_lag_s")
        #: Per-subscriber queue-wait histograms, created on first dispatch.
        self._tm_dispatch_latency: Dict[str, Histogram] = {}
        for subscriber in subscribers:
            self.queues.register(subscriber)
            self.accounting.register(subscriber)
            host = (host_map or {}).get(subscriber.name, subscriber.name)
            self.classifier.register_host(host, subscriber.name)
            if self.placement is not None:
                # No RPNs exist yet at construction time; the embedding
                # happens when the first nodes are added.
                self._placement_deferred.append(subscriber)
        self._scheduler_proc = env.process(self._scheduler_loop())

    def __repr__(self) -> str:
        return "<PrimaryRDN {} subscribers={} rpns={}>".format(
            self.cluster_ip, len(self.queues), len(self.node_scheduler)
        )

    # -- topology wiring ---------------------------------------------------

    def attach_nic(self, nic: NIC) -> None:
        """Install this RDN as the packet handler of a promiscuous NIC."""
        self.nic = nic
        nic.promiscuous = True
        nic.receive_handler = self.handle_packet

    def add_rpn(
        self,
        rpn_id: str,
        capacity_per_s: ResourceVector,
        mac: Optional[MACAddress] = None,
        ip: Optional[IPAddress] = None,
    ) -> None:
        """Register one back-end node with the node scheduler."""
        self.node_scheduler.add_node(rpn_id, capacity_per_s)
        if mac is not None:
            self._rpn_macs[rpn_id] = mac
        if ip is not None:
            self._rpn_ips[rpn_id] = ip
        if self.placement is not None:
            self.placement.add_node(rpn_id, capacity_per_s)
            self._drain_deferred_placements()

    def _drain_deferred_placements(self) -> None:
        """Embed subscribers that arrived before any RPN existed.

        A deferred subscriber the engine rejects stays registered with
        an empty allowed set — its requests queue but never dispatch —
        and is retried whenever another node joins, so capacity added
        later can still admit it.
        """
        if self.placement is None or not self._placement_deferred:
            return
        still_deferred: List[Subscriber] = []
        for subscriber in self._placement_deferred:
            if not self.placement.place(subscriber):
                still_deferred.append(subscriber)
        self._placement_deferred = still_deferred

    def add_secondary(self, mac: MACAddress) -> None:
        """Register a secondary RDN for handshake offload (§3.2)."""
        self._secondaries.append(mac)

    # -- subscriber churn (join/leave while serving) ---------------------------

    def register_subscriber(
        self, subscriber: Subscriber, hosts: Optional[List[str]] = None
    ) -> bool:
        """Admit one subscriber while the cluster is serving.

        With placement on, admission control runs first: a reservation
        that cannot be embedded without overcommitting any node is
        rejected and **nothing** is registered (the caller sees False).
        With placement off (the paper's model) every registration is
        accepted.  When no RPN exists yet the embedding is deferred to
        :meth:`add_rpn`, like constructor-time subscribers.
        """
        if subscriber.name in self.queues:
            raise RuntimeError(
                "subscriber {!r} already registered".format(subscriber.name)
            )
        if self.placement is not None:
            if len(self.node_scheduler) == 0:
                self._placement_deferred.append(subscriber)
            elif not self.placement.place(subscriber):
                return False
        self.queues.register(subscriber)
        self.accounting.register(subscriber)
        for host in hosts if hosts is not None else [subscriber.name]:
            self.classifier.register_host(host, subscriber.name)
        return True

    def deregister_subscriber(self, name: str) -> bool:
        """Remove one subscriber while the cluster is serving (churn).

        Pending and in-flight requests are dropped (their predictions
        fold into the accounting's ``total_forgotten``, keeping the
        conservation invariant), the classifier stops resolving the
        subscriber's hosts, the embedding's capacity is released, and
        the interned id returns to the shared table for reuse.
        """
        if name not in self.queues:
            return False
        self.classifier.unregister_subscriber(name)
        if self.placement is not None:
            self.placement.release(name)
            self._placement_deferred = [
                s for s in self._placement_deferred if s.name != name
            ]
        for per_node in self._in_flight.values():
            per_node.pop(name, None)
        # Accounting must let go before the queues release the shared
        # table id (the queues collection owns the table).
        self.accounting.unregister(name)
        self.queues.unregister(name)
        return True

    # -- the scheduler polling loop (§3.4) ------------------------------------

    def _scheduler_loop(self):
        registry = get_registry()
        while True:
            yield self.env.timeout(self.config.scheduling_cycle_s)
            self._check_heartbeats()
            self.scheduler.run_cycle()
            registry.tick()

    # -- failure detection (heartbeat on the accounting stream) ----------------

    def _check_heartbeats(self) -> None:
        """Declare dead any RPN silent for ``heartbeat_miss_limit`` cycles.

        The accounting messages double as heartbeats: a healthy node
        reports every ``accounting_cycle_s`` even when idle, so more than
        K consecutive missed reports means the node (or its link) is
        gone, not merely unloaded.
        """
        limit = self.config.heartbeat_miss_limit
        if limit is None:
            return
        threshold = limit * self.config.accounting_cycle_s
        now = self.env.now
        # Subtraction is monotone in ``last``: when the stalest report is
        # not overdue, none is, and the per-node loop would find nothing.
        last_feedback = self._last_feedback
        if not last_feedback or now - min(last_feedback.values()) <= threshold:
            return
        for status in self.node_scheduler.up_nodes():
            last = self._last_feedback.get(status.rpn_id)
            if last is not None and now - last > threshold:
                self._on_node_death(status.rpn_id, silent_for_s=now - last)

    def _on_node_death(self, rpn_id: str, silent_for_s: float = 0.0) -> None:
        """Tear one dead RPN out of the dispatch path.

        Everything charged against the node is unwound: its outstanding
        predictions are restored to the subscriber balances, its in-flight
        requests return to the heads of their queues (oldest first), and
        its spliced connections are dropped from the bridge table.  The
        node's capacity leaves ``total_capacity_per_s`` implicitly, which
        re-distributes its spare share across the survivors.
        """
        now = self.env.now
        self.node_scheduler.mark_down(rpn_id, at_s=now)
        self.failures.record(now, NODE_DOWN, rpn_id, detail=silent_for_s)
        self._tm_node_down.inc()
        get_registry().emit(
            {"event": "node_down", "target": rpn_id, "at": now, "silent_for_s": silent_for_s}
        )
        self.accounting.forget_rpn(rpn_id)
        requeued = 0
        for name, items in self._in_flight.pop(rpn_id, {}).items():
            queue = self.queues.get(name)
            if queue is None:
                continue
            resurrect: List[object] = list(items)
            if self.hedges is not None:
                # Copies with a live sibling elsewhere are not requeued —
                # the hedge already is the retry.
                resurrect = self.hedges.filter_requeue(rpn_id, resurrect)
            # appendleft-ing in reverse keeps FIFO order at the head.
            for item in reversed(resurrect):
                queue.requeue(item)
            requeued += len(resurrect)
        if requeued:
            self.failures.record(now, REQUESTS_REQUEUED, rpn_id, detail=float(requeued))
        dropped = self.conntable.remove_rpn(rpn_id)
        if dropped:
            self.failures.record(
                now, CONNECTIONS_RESET, rpn_id, detail=float(len(dropped))
            )
        if self.placement is not None:
            # Promote every subscriber embedded on the dead node to a
            # backup whose capacity was reserved in advance; their
            # requeued requests re-dispatch to the new primary.
            self.placement.on_node_death(rpn_id)

    def _on_node_recovery(self, rpn_id: str) -> None:
        """Re-admit a node whose accounting stream resumed."""
        self.node_scheduler.mark_up(rpn_id)
        self.failures.record(self.env.now, NODE_UP, rpn_id)
        self._tm_node_up.inc()
        get_registry().emit(
            {"event": "node_up", "target": rpn_id, "at": self.env.now}
        )
        if self.placement is not None:
            self.placement.on_node_recovery(rpn_id)
            self._drain_deferred_placements()

    def _next_isn(self) -> int:
        self._isn = (self._isn + 128_000) % SEQ_SPACE
        return self._isn

    # -- flow-mode entry point ---------------------------------------------

    def submit_request(self, subscriber: str, request: object) -> bool:
        """Enqueue a classified request directly (flow transport)."""
        queue = self.queues.get(subscriber)
        if queue is None:
            self.ops.rejected += 1
            return False
        self.ops.enqueues += 1
        return queue.offer(request)

    # -- packet-mode entry point ------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Classify and act on one inbound frame (§3.3)."""
        self.ops.packets += 1
        self._tm_packets.inc()
        payload = packet.payload

        if payload is not None:
            # Feedback and secondary-RDN control traffic.
            if isinstance(payload, AccountingMessage):
                self.ops.feedback_messages += 1
                self.on_feedback(payload)
                return
            if isinstance(payload, HandshakeComplete):
                self._on_handshake_complete(payload)
                return

        if packet.dst_ip != self.cluster_ip:
            return  # e.g. RPN->client traffic overheard in promiscuous mode

        # Established (spliced) connections: layer-2 bridging via the
        # connection table.
        quad = packet.quadruple()
        entry = self.conntable.lookup(quad)
        if entry is not None:
            self.ops.forwards += 1
            # Bridge to the servicing RPN.  The source MAC is rewritten to
            # the RDN's own so the switch never learns a client MAC on the
            # RDN's port (which would steer RPN->client traffic back here).
            self.nic.transmit(
                packet.copy(dst_mac=entry.rpn_mac, src_mac=self.nic.mac)
            )
            if packet.flags._value_ & _TEARDOWN_BITS:
                # The client is tearing the connection down; keep the
                # entry briefly for retransmissions, then reclaim it.
                self.env.call_later(LINGER_S, self.conntable.remove, quad)
            return

        self.ops.classifications += 1
        classification = self.classifier.classify(packet)

        if classification.packet_class is PacketClass.HANDSHAKE:
            self._emulate_handshake(packet, quad)
            return

        if classification.packet_class is PacketClass.REQUEST:
            if quad not in self._half_open and quad in self._delegated:
                # HandshakeComplete from the secondary is still in flight;
                # hold the request until it lands.
                self._awaiting_handshake[quad] = packet
                return
            self._accept_request(packet, quad, classification.subscriber)
            return

        # OTHER: packets of connections whose handshake was delegated are
        # relayed to the owning secondary; bare ACKs completing a locally
        # emulated handshake are absorbed; the rest is dropped.
        delegation = self._delegated.get(quad)
        if delegation is not None:
            self.ops.forwards += 1
            self.nic.transmit(
                packet.copy(dst_mac=delegation.mac, src_mac=self.nic.mac)
            )
            return
        half = self._half_open.get(quad)
        if half is not None:
            flag_bits = packet.flags._value_
            if flag_bits & ACK_BIT and packet.payload_len == 0:
                half.established = True
                self.ops.absorbed += 1
                return
            if flag_bits & _TEARDOWN_BITS:
                del self._half_open[quad]
                self.ops.absorbed += 1
                return
        self.ops.rejected += 1

    # -- handshake emulation (§3.3: "emulating the three-way hand-shake") ------

    def _emulate_handshake(self, packet: Packet, quad: Quadruple) -> None:
        # A connection already emulated locally (including after a failed
        # delegation) stays local: a duplicate SYN re-sends the SYN-ACK.
        if self._secondaries and quad not in self._half_open:
            self._delegate_handshake(packet, quad)
            return
        self._emulate_local(quad, packet.seq, packet.src_mac)

    def _emulate_local(
        self, quad: Quadruple, client_isn: int, client_mac: MACAddress
    ) -> None:
        """Answer the handshake from the primary itself (no offload)."""
        half = self._half_open.get(quad)
        if half is None:
            half = HalfOpenConnection(
                quad=quad,
                client_isn=client_isn,
                rdn_isn=self._next_isn(),
                client_mac=client_mac,
            )
            self._half_open[quad] = half
            self.ops.connection_setups += 1
        # (On a duplicate SYN the same SYN-ACK is re-sent.)
        synack = Packet(
            src_mac=self.nic.mac,
            dst_mac=half.client_mac,
            src_ip=self.cluster_ip,
            dst_ip=quad.src_ip,
            src_port=quad.dst_port,
            dst_port=quad.src_port,
            seq=half.rdn_isn,
            ack=(half.client_isn + 1) % SEQ_SPACE,
            flags=SYN_ACK,
        )
        self.nic.transmit(synack)

    def _delegate_handshake(self, packet: Packet, quad: Quadruple) -> None:
        """Asymmetric RDN cluster: push handshake work to a secondary."""
        if quad in self._delegated:
            delegation = self._delegated[quad]
        else:
            target = self._secondaries[self._next_secondary % len(self._secondaries)]
            self._next_secondary += 1
            delegation = _Delegation(
                mac=target, client_isn=packet.seq, client_mac=packet.src_mac
            )
            self._delegated[quad] = delegation
            self.env.call_later(
                DELEGATE_TIMEOUT_S, self._check_delegation, quad, target
            )
        order = DelegateHandshake(
            quad=quad, client_isn=packet.seq, client_mac=packet.src_mac
        )
        self.ops.forwards += 1
        self.nic.transmit(
            Packet(
                src_mac=self.nic.mac,
                dst_mac=delegation.mac,
                src_ip=self.cluster_ip,
                dst_ip=self.cluster_ip,
                src_port=CONTROL_PORT,
                dst_port=CONTROL_PORT,
                payload=order,
                payload_len=CONTROL_PAYLOAD_LEN,
            )
        )

    def _check_delegation(self, quad: Quadruple, mac: MACAddress) -> None:
        """Delegation timeout: the secondary never reported back.

        Fires ``DELEGATE_TIMEOUT_S`` after each delegation.  If the
        handshake is still outstanding with the same secondary, the
        secondary takes a strike (``SECONDARY_FAILURE_LIMIT`` consecutive
        strikes ejects it from the offload rotation) and the primary
        takes the handshake over itself — it beats the client's SYN
        retransmission, so the client sees nothing but a slower SYN-ACK.
        """
        delegation = self._delegated.get(quad)
        if delegation is None or delegation.mac != mac or quad in self._half_open:
            return
        now = self.env.now
        self.failures.record(now, DELEGATE_TIMEOUT, str(mac))
        strikes = self._secondary_failures.get(mac, 0) + 1
        self._secondary_failures[mac] = strikes
        if strikes >= SECONDARY_FAILURE_LIMIT and mac in self._secondaries:
            self._secondaries.remove(mac)
            self.failures.record(now, SECONDARY_DOWN, str(mac), detail=float(strikes))
        del self._delegated[quad]
        self._emulate_local(quad, delegation.client_isn, delegation.client_mac)

    def revive_secondary(self, mac: MACAddress) -> None:
        """Return an ejected secondary to the offload rotation."""
        self._secondary_failures[mac] = 0
        if mac not in self._secondaries:
            self._secondaries.append(mac)
            self.failures.record(self.env.now, SECONDARY_UP, str(mac))

    def _on_handshake_complete(self, done: HandshakeComplete) -> None:
        half = HalfOpenConnection(
            quad=done.quad,
            client_isn=done.client_isn,
            rdn_isn=done.rdn_isn,
            client_mac=done.client_mac,
            established=True,
        )
        self._half_open[done.quad] = half
        delegation = self._delegated.pop(done.quad, None)
        if delegation is not None:
            # A completed handshake clears the secondary's strike count:
            # ejection requires *consecutive* timeouts.
            self._secondary_failures[delegation.mac] = 0
        self.ops.connection_setups += 1
        raced = self._awaiting_handshake.pop(done.quad, None)
        if raced is not None:
            subscriber = self.classifier.classify_payload(raced.payload)
            if subscriber is not None:
                self._accept_request(raced, done.quad, subscriber)

    # -- request admission -----------------------------------------------------

    def _accept_request(self, packet: Packet, quad: Quadruple, subscriber: str) -> None:
        half = self._half_open.get(quad)
        if half is None:
            self.ops.rejected += 1
            return
        if half.request_enqueued:
            self.ops.absorbed += 1  # client retransmission while queued
            return
        pending = PendingRequest(
            subscriber=subscriber,
            request=packet.payload,
            request_bytes=packet.payload_len,
            quad=quad,
            client_isn=half.client_isn,
            rdn_isn=half.rdn_isn,
            client_mac=half.client_mac,
            enqueued_at=self.env.now,
        )
        queue = self.queues.get(subscriber)
        if queue is None:
            self.ops.rejected += 1
            return
        half.request_enqueued = True
        self.ops.enqueues += 1
        if not queue.offer(pending):
            # Queue full: the request is dropped (Table 1's column); reset
            # the client so it fails fast instead of retransmitting.
            del self._half_open[quad]
            reset = Packet(
                src_mac=self.nic.mac,
                dst_mac=half.client_mac,
                src_ip=self.cluster_ip,
                dst_ip=quad.src_ip,
                src_port=quad.dst_port,
                dst_port=quad.src_port,
                seq=(half.rdn_isn + 1) % SEQ_SPACE,
                ack=0,
                flags=TCPFlags.RST,
            )
            self.nic.transmit(reset)

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(
        self, item: object, rpn_id: str, subscriber: str, predicted: ResourceVector
    ) -> None:
        self.ops.dispatches += 1
        self._tm_dispatches.inc()
        self._note_dispatch_latency(item, subscriber)
        self._in_flight.setdefault(rpn_id, {}).setdefault(subscriber, deque()).append(
            item
        )
        if isinstance(item, PendingRequest):
            self._dispatch_packet_mode(item, rpn_id)
            return
        if self.flow_dispatch is None:
            raise RuntimeError("no flow_dispatch installed for flow-mode request")
        if self.hedges is not None:
            # Track *before* delivery so an instantaneous completion
            # (zero-cost request) still finds its entry.
            self.hedges.on_primary_dispatch(item, rpn_id, subscriber, predicted)
        self.flow_dispatch(item, rpn_id, subscriber)

    # -- hedging hooks (flow mode only) -------------------------------------------

    def _pick_clone_node(
        self, item: object, predicted: ResourceVector, exclude: frozenset
    ) -> Optional[str]:
        return self.node_scheduler.pick(predicted, request=item, exclude=exclude)

    def _dispatch_clone(self, item: object, rpn_id: str, subscriber: str) -> None:
        self.ops.dispatches += 1
        self._tm_dispatches.inc()
        self._in_flight.setdefault(rpn_id, {}).setdefault(subscriber, deque()).append(
            item
        )
        if self.flow_dispatch is not None:
            self.flow_dispatch(item, rpn_id, subscriber)

    def _cancel_copy(self, item: object, rpn_id: str, subscriber: str) -> bool:
        """Abort the copy on ``rpn_id`` and drop it from in-flight tracking
        (it will never complete), by identity."""
        if self.cancel_service is None or not self.cancel_service(item, rpn_id):
            return False
        items = self._in_flight.get(rpn_id, {}).get(subscriber)
        if items:
            for index, queued in enumerate(items):
                if queued is item:
                    del items[index]
                    break
        return True

    def _note_dispatch_latency(self, item: object, subscriber: str) -> None:
        """Histogram the queue-wait of one dispatched request."""
        enqueued = getattr(item, "enqueued_at", None)
        if enqueued is None:
            enqueued = getattr(item, "issued_at", None)
        if enqueued is None:
            return
        histogram = self._tm_dispatch_latency.get(subscriber)
        if histogram is None:
            histogram = get_registry().histogram(
                "repro.core.dispatch_latency_s", subscriber=subscriber
            )
            self._tm_dispatch_latency[subscriber] = histogram
        histogram.observe(max(0.0, self.env.now - enqueued))

    def _dispatch_packet_mode(self, pending: PendingRequest, rpn_id: str) -> None:
        rpn_mac = self._rpn_macs[rpn_id]
        rpn_ip = self._rpn_ips[rpn_id]
        self.conntable.insert(pending.quad, rpn_id, rpn_mac)
        self._half_open.pop(pending.quad, None)
        order = DispatchOrder(
            subscriber=pending.subscriber,
            request=pending.request,
            request_bytes=pending.request_bytes,
            quad=pending.quad,
            client_isn=pending.client_isn,
            rdn_isn=pending.rdn_isn,
            client_mac=pending.client_mac,
        )
        self.nic.transmit(
            Packet(
                src_mac=self.nic.mac,
                dst_mac=rpn_mac,
                src_ip=self.cluster_ip,
                dst_ip=rpn_ip,
                src_port=CONTROL_PORT,
                dst_port=CONTROL_PORT,
                payload=order,
                payload_len=CONTROL_PAYLOAD_LEN + pending.request_bytes,
            )
        )

    # -- feedback ----------------------------------------------------------------

    def on_feedback(self, message: AccountingMessage) -> None:
        """Apply an RPN accounting message (both transports).

        The message doubles as the node's heartbeat: its arrival updates
        the failure detector's watch, and a message from a node currently
        marked down re-admits it (with drained state) first, so the
        feedback below lands on a live account.
        """
        status = self.node_scheduler.get(message.rpn_id)
        if status is not None and not status.up:
            self._on_node_recovery(message.rpn_id)
        self._last_feedback[message.rpn_id] = self.env.now
        self._tm_feedback.inc()
        self._tm_report_lag.observe(message.age_s(self.env.now))
        self.scheduler.apply_feedback(message)
        per_node = self._in_flight.get(message.rpn_id)
        for name, report in message.per_subscriber.items():
            if per_node is not None and report.completed:
                items = per_node.get(name)
                if items:
                    for _ in range(min(report.completed, len(items))):
                        items.popleft()
            if report.completed:
                self.completion_log.append(
                    (message.cycle_end_s, name, report.completed)
                )
