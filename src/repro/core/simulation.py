"""One-call assembly of a complete Gage cluster on the simulator.

:class:`GageCluster` builds the paper's testbed (Figure 1): a primary RDN,
``num_rpns`` back-end nodes running the web server, optional secondary
RDNs, and (in packet mode) client hosts — all connected through a
simulated switch.

Two fidelities drive the *same* Gage core:

- ``fidelity="packet"`` — every TCP handshake, data segment, ACK, and
  splice remap is simulated; used for mechanism correctness and the
  overhead experiments.
- ``fidelity="flow"`` — requests travel as schedulable units with a small
  modeled control latency; used for the long QoS-dynamics experiments
  (Tables 1-2, Figure 3) where per-packet simulation adds nothing but
  run time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.filesystem import FileSystem
from repro.cluster.machine import Machine
from repro.cluster.webserver import WebServer, site_docroot
from repro.core.config import HEDGE_OFF, GageConfig
from repro.core.feedback import AccountingMessage
from repro.core.grps import ResourceVector
from repro.core.hedge import ServiceHandle
from repro.core.metrics import ServiceReport
from repro.core.placement import PlacementEngine
from repro.core.rdn import PrimaryRDN
from repro.core.rpn import LocalServiceManager, RPNAccountingAgent
from repro.core.secondary import SecondaryRDN
from repro.core.subscriber import Subscriber
from repro.core.topology import ClusterTopology
from repro.net.addresses import IPAddress, MACAddress
from repro.net.switch import Switch
from repro.net.tcp import HostStack
from repro.sim.engine import Environment
from repro.telemetry.registry import get_registry
from repro.workload.client import ClientFleet
from repro.workload.request import CostModel, RequestRecord, WebRequest, issue_delays

#: Fast Ethernet outgoing-link capacity, bytes per second.
LINK_BYTES_PER_S = 12_500_000.0


def default_rpn_capacity(cpu_speed: float = 1.0) -> ResourceVector:
    """The per-second resource capacity of one back-end node."""
    return ResourceVector(cpu_s=cpu_speed, disk_s=1.0, net_bytes=LINK_BYTES_PER_S)


class GageCluster:
    """A fully wired Gage deployment on the simulator."""

    def __init__(
        self,
        env: Environment,
        subscribers: Sequence[Subscriber],
        site_files: Dict[str, Dict[str, int]],
        num_rpns: int = 8,
        config: Optional[GageConfig] = None,
        fidelity: str = "flow",
        cost_model: Optional[CostModel] = None,
        workers_per_site: int = 4,
        rpn_cpu_speed: float = 1.0,
        rpn_cache_bytes: int = 32 * 1024 * 1024,
        num_clients: int = 2,
        num_secondaries: int = 0,
        flow_dispatch_latency_s: float = 0.0002,
        flow_feedback_latency_s: float = 0.0002,
        rpn_overhead_cpu_s: float = 56.7e-6,
        stagger_accounting: bool = False,
        topology: Optional[ClusterTopology] = None,
        placement: Optional[PlacementEngine] = None,
    ) -> None:
        if fidelity not in ("flow", "packet"):
            raise ValueError("fidelity must be 'flow' or 'packet'")
        if num_rpns < 1:
            raise ValueError("need at least one RPN")
        if topology is None:
            # The scalar knobs describe the paper's homogeneous cluster;
            # map them onto the equivalent degenerate topology so both
            # construction paths are one code path.
            topology = ClusterTopology.homogeneous(
                num_rpns, cpu_speed=rpn_cpu_speed, cache_bytes=rpn_cache_bytes
            )
        #: The cluster layout.  When an explicit topology is given it is
        #: authoritative: ``num_rpns``/``rpn_cpu_speed``/``rpn_cache_bytes``
        #: are ignored in favour of the per-node specs.
        self.topology = topology
        num_rpns = topology.num_rpns
        self.env = env
        self.fidelity = fidelity
        self.config = config or GageConfig()
        self.cost_model = cost_model or CostModel()
        self.subscribers = list(subscribers)
        self.cluster_ip = IPAddress("10.0.0.100")
        self.rdn = PrimaryRDN(
            env, self.config, self.cluster_ip, self.subscribers, placement=placement
        )
        #: The document catalog every RPN's ``Machine`` shares: a site's
        #: tree is the same on every node, so it is registered once.
        self.fs = FileSystem()
        for subscriber in self.subscribers:
            self.fs.add_tree(
                site_docroot(subscriber.name), site_files.get(subscriber.name, {})
            )
        self.machines: List[Machine] = []
        self.webservers: List[WebServer] = []
        self.agents: List[RPNAccountingAgent] = []
        self.lsms: List[LocalServiceManager] = []
        self.secondaries: List[SecondaryRDN] = []
        self.switch: Optional[Switch] = None
        self.fleet: Optional[ClientFleet] = None
        self._flow_dispatch_latency_s = flow_dispatch_latency_s
        self._flow_feedback_latency_s = flow_feedback_latency_s
        #: §4.2's measured per-request Gage overhead on each RPN.
        self.rpn_overhead_cpu_s = rpn_overhead_cpu_s
        #: Whether RPN accounting agents tick out of phase.  The paper's
        #: Figure 3 behaviour (usage observed as "0 or around twice the
        #: reservation" at a 2 s cycle) implies in-phase reporting, so
        #: synchronized is the default; staggering is ablation A5.
        self.stagger_accounting = stagger_accounting
        #: (time, host) of every completed request, across all RPNs.
        self.completions: List[Tuple[float, str]] = []
        #: (time, host, usage-in-GRPS) per completed request.
        self.usage_events: List[Tuple[float, str, float]] = []
        #: (time, host, accepted) for every submitted request.
        self.arrivals: List[Tuple[float, str, bool]] = []
        #: (completion_time, host, end-to-end latency) per completion.
        self.latencies: List[Tuple[float, str, float]] = []

        # -- fault-injection state (driven by repro.faults) ------------------
        #: RPNs whose process is dead: dispatches and completions vanish.
        self.down_rpns: Set[str] = set()
        #: RPNs that are wedged: dispatches are held, not serviced.
        self.hung_rpns: Set[str] = set()
        #: Held dispatches of hung nodes, delivered (or discarded) on resume.
        self._hold_buffers: Dict[str, List[object]] = {}
        #: Requests lost to dead nodes (dispatched there, never serviced,
        #: plus completions suppressed by a crash).
        self.lost_in_flight = 0
        #: (time, kind, target) of every fault applied to this cluster.
        self.fault_log: List[Tuple[float, str, str]] = []
        self._servers: Dict[str, WebServer] = {}
        #: Hedging (flow mode): cancellation handle per live service,
        #: keyed rpn -> id(request).  Empty unless the policy is on.
        self._service_handles: Dict[str, Dict[int, ServiceHandle]] = {}
        self._hedging = self.config.hedge_policy != HEDGE_OFF
        self._agent_by_id: Dict[str, RPNAccountingAgent] = {}
        self._secondary_by_name: Dict[str, SecondaryRDN] = {}
        self._secondary_macs: Dict[str, MACAddress] = {}
        #: Per-target network interface (packet mode only).
        self._iface_by_target: Dict[str, object] = {}
        #: Nominal CPU speed per node, the baseline `slow()` scales from.
        self._base_cpu_speeds: Dict[str, float] = {}
        #: Fabric switches in spec order (packet mode; index 0 is the root).
        self.switches: List[Switch] = []

        if fidelity == "packet":
            self._build_packet_mode(num_clients, num_secondaries, workers_per_site)
        else:
            if num_secondaries:
                raise ValueError("secondary RDNs only exist in packet mode")
            self._build_flow_mode(workers_per_site)

    # -- construction -----------------------------------------------------------

    def _make_webserver(self, index: int, workers_per_site: int) -> WebServer:
        spec = self.topology.nodes[index]
        machine = Machine(
            self.env,
            "rpn{}".format(index),
            cpu_speed=spec.cpu_speed,
            cache_bytes=spec.cache_bytes,
            disk_seek_s=(
                self.cost_model.seek_s
                if spec.disk_seek_s is None
                else spec.disk_seek_s
            ),
            disk_transfer_bps=(
                self.cost_model.transfer_bps
                if spec.disk_transfer_bps is None
                else spec.disk_transfer_bps
            ),
            fs=self.fs,
        )
        server = WebServer(
            machine,
            cost_model=self.cost_model,
            workers_per_site=workers_per_site,
            overhead_cpu_s=self.rpn_overhead_cpu_s,
        )
        for subscriber in self.subscribers:
            server.host_site(subscriber.name)
        rpn_id = "rpn{}".format(index)
        server.on_complete.append(
            lambda host, request, usage, at, _rpn=rpn_id: self._on_complete_from(
                _rpn, host, request, usage, at
            )
        )
        self._servers[rpn_id] = server
        self._base_cpu_speeds[rpn_id] = spec.cpu_speed
        self.machines.append(machine)
        self.webservers.append(server)
        return server

    def _on_complete_from(
        self, rpn_id: str, host: str, request: WebRequest, usage, at: float
    ) -> None:
        if rpn_id in self.down_rpns:
            # A dead node produces no results; whatever was in flight on
            # it when it crashed is lost (the RDN re-enqueues it once the
            # failure detector fires).
            self.lost_in_flight += 1
            return
        if self._hedging:
            handles = self._service_handles.get(rpn_id)
            if handles is not None:
                handles.pop(id(request), None)
            if self.rdn.hedges is not None and not self.rdn.hedges.on_completion(
                request, rpn_id
            ):
                # A hedge loser that outran its cancellation: the request
                # was already answered by the winning copy, so this
                # completion must not enter the stats a second time.
                return
        self._on_complete(host, request, usage, at)

    def _on_complete(self, host: str, request: WebRequest, usage, at: float) -> None:
        self.completions.append((at, host))
        self.usage_events.append(
            (at, host, usage.in_generic_requests(self.config.generic_request))
        )
        issued = getattr(request, "issued_at", None)
        if issued is not None and issued <= at:
            self.latencies.append((at, host, at - issued))

    def _build_flow_mode(self, workers_per_site: int) -> None:
        num_rpns = self.topology.num_rpns
        servers: Dict[str, WebServer] = {}
        for index, spec in enumerate(self.topology.nodes):
            server = self._make_webserver(index, workers_per_site)
            rpn_id = "rpn{}".format(index)
            servers[rpn_id] = server
            capacity = spec.capacity_per_s()
            self.rdn.add_rpn(rpn_id, capacity)
            agent = RPNAccountingAgent(
                self.env,
                rpn_id,
                server,
                cycle_s=self.config.accounting_cycle_s,
                send_fn=self._flow_feedback,
                phase_offset_s=(
                    self.config.accounting_cycle_s * index / num_rpns
                    if self.stagger_accounting
                    else 0.0
                ),
                capacity_per_s=capacity,
            )
            self.agents.append(agent)
            self._agent_by_id[rpn_id] = agent

        def flow_dispatch(request: object, rpn_id: str, _subscriber: str) -> None:
            if rpn_id in self.down_rpns:
                # Dispatched into the void: lost until the RDN's failure
                # detector re-enqueues the node's in-flight requests.
                self.lost_in_flight += 1
                return
            if rpn_id in self.hung_rpns:
                if self._hedging:
                    self._register_handle(rpn_id, request)
                self._hold_buffers.setdefault(rpn_id, []).append(request)
                return
            server = servers[rpn_id]
            if not self._hedging:
                self.env.call_later(
                    self._flow_dispatch_latency_s,
                    lambda: self.env.process(server.service_request(request)),
                )
                return
            handle = self._register_handle(rpn_id, request)

            def _start() -> None:
                if handle.cancelled:
                    return  # cancelled while the dispatch was in flight
                self.env.process(server.service_request(request, handle=handle))

            self.env.call_later(self._flow_dispatch_latency_s, _start)

        self.rdn.flow_dispatch = flow_dispatch
        self.rdn.cancel_service = self._cancel_service

    def _register_handle(self, rpn_id: str, request: object) -> ServiceHandle:
        handle = ServiceHandle()
        self._service_handles.setdefault(rpn_id, {})[id(request)] = handle
        return handle

    def _cancel_service(self, request: object, rpn_id: str) -> bool:
        """Hedge-loser abort: stop the copy of ``request`` on ``rpn_id``."""
        handles = self._service_handles.get(rpn_id)
        if not handles:
            return False
        handle = handles.pop(id(request), None)
        if handle is None:
            return False
        return handle.cancel()

    def _flow_feedback(self, message: AccountingMessage) -> None:
        self.env.call_later(
            self._flow_feedback_latency_s, self.rdn.on_feedback, message
        )

    def _build_fabric(self, num_clients: int, num_secondaries: int) -> None:
        """Instantiate the switch fabric the topology describes.

        A star: switch 0 is the root (RDN, secondaries, and clients
        attach there, plus one trunk per leaf switch); every other
        switch carries only its nodes and its uplink.  An unspecified
        port count sizes the switch from the topology — never below the
        paper's 16-port box, preserving the historic default — while an
        explicit count that cannot seat the topology raises instead of
        being silently clamped.
        """
        topo = self.topology
        num_switches = len(topo.switches)
        for index, spec in enumerate(topo.switches):
            required = len(topo.nodes_on_switch(index))
            if index == 0:
                required += 1 + num_clients + num_secondaries + (num_switches - 1)
            else:
                required += 1  # the uplink to the root
            if spec.ports is None:
                ports = max(16, required)
            elif spec.ports < required:
                raise ValueError(
                    "switch {} has {} ports but the topology needs {}".format(
                        index, spec.ports, required
                    )
                )
            else:
                ports = spec.ports
            self.switches.append(
                Switch(
                    self.env,
                    ports=ports,
                    name="switch" if index == 0 else "switch{}".format(index),
                    bandwidth_bps=spec.port_bandwidth_bps,
                    latency_s=spec.latency_s,
                )
            )
        self.switch = self.switches[0]
        for index in range(1, num_switches):
            uplink = topo.switches[index].uplink_or_default()
            self.switch.interconnect(
                self.switches[index],
                bandwidth_bps=uplink.bandwidth_bps,
                latency_s=uplink.latency_s,
            )

    def _build_packet_mode(
        self, num_clients: int, num_secondaries: int, workers_per_site: int
    ) -> None:
        num_rpns = self.topology.num_rpns
        self._build_fabric(num_clients, num_secondaries)
        assert self.switch is not None
        rdn_mac = MACAddress("02:00:00:00:00:64")

        # Primary RDN: a bare NIC, no TCP stack of its own.
        from repro.net.nic import NIC

        rdn_nic = NIC(self.env, rdn_mac, name="rdn.eth0")
        self.switch.attach(rdn_nic.iface)
        self.rdn.attach_nic(rdn_nic)

        # Back-end RPNs, each on its own access link off its fabric switch.
        for index, spec in enumerate(self.topology.nodes):
            server = self._make_webserver(index, workers_per_site)
            machine = server.machine
            rpn_id = "rpn{}".format(index)
            rpn_ip = IPAddress("10.0.1.{}".format(index + 1))
            rpn_mac = MACAddress("02:00:00:00:01:{:02x}".format(index + 1))
            nic = machine.add_nic(
                rpn_mac,
                bandwidth_bps=spec.link.bandwidth_bps,
                latency_s=spec.link.latency_s,
            )
            # The port's egress toward the node serializes at the access
            # link's rate; forwarding latency stays the switch's own.
            self.switches[spec.switch].attach(
                nic.iface, bandwidth_bps=spec.link.bandwidth_bps
            )
            stack = HostStack(self.env, rpn_ip, nic)
            stack.default_mac = rdn_mac
            lsm = LocalServiceManager(self.env, stack, rpn_ip, rpn_mac, self.cluster_ip)
            stack.listen(80, server.acceptor)
            self.lsms.append(lsm)
            capacity = spec.capacity_per_s()
            self.rdn.add_rpn(rpn_id, capacity, mac=rpn_mac, ip=rpn_ip)
            self._iface_by_target[rpn_id] = nic.iface
            agent = RPNAccountingAgent(
                self.env,
                rpn_id,
                server,
                cycle_s=self.config.accounting_cycle_s,
                send_fn=self._packet_feedback_sender(nic, rpn_ip, rdn_mac),
                phase_offset_s=(
                    self.config.accounting_cycle_s * index / num_rpns
                    if self.stagger_accounting
                    else 0.0
                ),
                capacity_per_s=capacity,
            )
            self.agents.append(agent)
            self._agent_by_id[rpn_id] = agent

        # Secondary RDNs.
        for index in range(num_secondaries):
            sec_mac = MACAddress("02:00:00:00:02:{:02x}".format(index + 1))
            sec_nic = NIC(self.env, sec_mac, name="rdn2-{}.eth0".format(index))
            self.switch.attach(sec_nic.iface)
            secondary = SecondaryRDN(
                self.env,
                "secondary{}".format(index),
                self.cluster_ip,
                primary_mac=rdn_mac,
                isn_base=10_000_000 * (index + 2),
            )
            secondary.attach_nic(sec_nic)
            self.rdn.add_secondary(sec_mac)
            self.secondaries.append(secondary)
            self._secondary_by_name[secondary.name] = secondary
            self._secondary_macs[secondary.name] = sec_mac
            self._iface_by_target[secondary.name] = sec_nic.iface

        # Clients.
        client_stacks: List[HostStack] = []
        for index in range(num_clients):
            client_ip = IPAddress("10.0.0.{}".format(index + 1))
            client_mac = MACAddress("02:00:00:00:00:{:02x}".format(index + 1))
            nic = NIC(self.env, client_mac, name="client{}.eth0".format(index))
            self.switch.attach(nic.iface)
            stack = HostStack(
                self.env, client_ip, nic, rto_s=0.5, max_retries=60
            )
            stack.arp[self.cluster_ip] = rdn_mac
            client_stacks.append(stack)
        self.fleet = ClientFleet(self.env, client_stacks, self.cluster_ip)

    def _packet_feedback_sender(self, nic, rpn_ip: IPAddress, rdn_mac: MACAddress):
        from repro.core.control import CONTROL_PAYLOAD_LEN, CONTROL_PORT
        from repro.net.packet import Packet

        def send(message: AccountingMessage) -> None:
            nic.transmit(
                Packet(
                    src_mac=nic.mac,
                    dst_mac=rdn_mac,
                    src_ip=rpn_ip,
                    dst_ip=self.cluster_ip,
                    src_port=CONTROL_PORT,
                    dst_port=CONTROL_PORT,
                    payload=message,
                    payload_len=CONTROL_PAYLOAD_LEN + 32 * len(message.per_subscriber),
                )
            )

        return send

    # -- fault injection (repro.faults drives these) -----------------------------

    def install_faults(self, schedule):
        """Arm a :class:`~repro.faults.FaultSchedule` against this cluster.

        Returns the :class:`~repro.faults.FaultInjector`, whose
        ``applied`` log records what fired and when.
        """
        from repro.faults import FaultInjector

        return FaultInjector(self.env, self, schedule)

    def _log_fault(self, kind: str, target: str) -> None:
        self.fault_log.append((self.env.now, kind, target))

    def _agent_for(self, target: str) -> RPNAccountingAgent:
        agent = self._agent_by_id.get(target)
        if agent is None:
            raise ValueError("unknown RPN target: {!r}".format(target))
        return agent

    def crash(self, target: str) -> None:
        """Kill a node's process: servicing and reporting stop instantly.

        For an RPN, everything in flight on the node is lost (and later
        re-enqueued by the RDN's failure detector); in packet mode its
        link also drops.  For a secondary RDN, pending handshake state is
        discarded and delegation orders go unanswered, which is what the
        primary's delegation timeout detects.
        """
        if target in self._secondary_by_name:
            self._secondary_by_name[target].fail()
            self._log_fault("crash", target)
            return
        agent = self._agent_for(target)
        self.down_rpns.add(target)
        self.hung_rpns.discard(target)
        self.lost_in_flight += len(self._hold_buffers.pop(target, []))
        self._service_handles.pop(target, None)
        agent.up = False
        iface = self._iface_by_target.get(target)
        if iface is not None:
            iface.up = False
        self._log_fault("crash", target)

    def restore(self, target: str) -> None:
        """Restart a crashed node with clean state.

        The RPN's accounting agent re-baselines (``resync``) before its
        first post-restart report, so usage and completions from before
        the crash — already backed out and re-dispatched by the RDN —
        are never reported.  The report itself is what re-admits the
        node at the RDN.  A restored secondary re-enters the primary's
        offload rotation immediately.
        """
        if target in self._secondary_by_name:
            self._secondary_by_name[target].recover()
            self.rdn.revive_secondary(self._secondary_macs[target])
            self._log_fault("restart", target)
            return
        agent = self._agent_for(target)
        self.down_rpns.discard(target)
        iface = self._iface_by_target.get(target)
        if iface is not None:
            iface.up = True
        agent.resync()
        agent.up = True
        self._log_fault("restart", target)

    def hang(self, target: str) -> None:
        """Wedge an RPN: new dispatches queue unserviced, reports stop."""
        agent = self._agent_for(target)
        self.hung_rpns.add(target)
        agent.up = False
        self._log_fault("hang", target)

    def resume(self, target: str) -> None:
        """Un-wedge a hung RPN.

        Held dispatches are serviced late — unless the RDN already
        declared the node dead and re-enqueued them, in which case the
        held copies are discarded to avoid double service.
        """
        agent = self._agent_for(target)
        self.hung_rpns.discard(target)
        held = self._hold_buffers.pop(target, [])
        status = self.rdn.node_scheduler.get(target)
        if status is not None and not status.up:
            self.lost_in_flight += len(held)
            if self._hedging:
                handles = self._service_handles.get(target, {})
                for request in held:
                    handles.pop(id(request), None)
        else:
            server = self._servers[target]
            handles = self._service_handles.get(target, {})
            for request in held:
                handle = handles.get(id(request)) if self._hedging else None
                if self._hedging and (handle is None or handle.cancelled):
                    # A hedge clone already answered this request while
                    # the node was wedged (cancellation removed or marked
                    # its handle); don't service the stale copy.
                    handles.pop(id(request), None)
                    continue
                self.env.process(server.service_request(request, handle=handle))
        agent.up = True
        self._log_fault("resume", target)

    def slow(self, target: str, factor: float = 1.0) -> None:
        """Degrade an RPN's CPU to ``factor`` of nominal (1.0 restores)."""
        if factor <= 0:
            raise ValueError("slow factor must be positive")
        server = self._servers.get(target)
        if server is None:
            raise ValueError("unknown RPN target: {!r}".format(target))
        server.machine.cpu.speed = self._base_cpu_speeds[target] * factor
        self._log_fault("slow", target)

    def partition(self, target: str) -> None:
        """Cut a node's network link (packet mode only)."""
        iface = self._iface_by_target.get(target)
        if iface is None:
            raise ValueError(
                "no link to partition for {!r} (flow mode has no links; "
                "use crash/hang instead)".format(target)
            )
        iface.up = False
        self._log_fault("partition", target)

    def heal(self, target: str) -> None:
        """Bring a partitioned link back up (packet mode only)."""
        iface = self._iface_by_target.get(target)
        if iface is None:
            raise ValueError(
                "no link to heal for {!r} (flow mode has no links)".format(target)
            )
        iface.up = True
        self._log_fault("heal", target)

    # -- driving workloads ------------------------------------------------------

    def load_trace(self, records: Sequence[RequestRecord]) -> None:
        """Schedule a trace for issue (transport-appropriate)."""
        delays = issue_delays(records, self.env.now)
        if self.fidelity == "packet":
            self.fleet.run_trace(records)
            self.env.call_later_each(delays, self._note_arrival, records)
        else:
            self.env.call_later_each(delays, self._submit_flow, records)

    def _note_arrival(self, record: RequestRecord) -> None:
        self.arrivals.append((self.env.now, record.host, True))

    def _submit_flow(self, record: RequestRecord) -> None:
        request = record.to_request()
        request.issued_at = self.env.now
        accepted = self.rdn.submit_request(record.host, request)
        self.arrivals.append((self.env.now, record.host, accepted))

    # -- subscriber churn ----------------------------------------------------------

    def add_subscriber(
        self,
        subscriber: Subscriber,
        files: Optional[Dict[str, int]] = None,
    ) -> None:
        """Join a subscriber mid-run, end to end.

        Hosts the site (document tree + worker processes) on every RPN
        *before* registering with the RDN, so the first dispatched
        request finds a servable site — registering alone would leave
        requests answered as unattributable 404s whose dispatch-time
        predictions are never backed out, slowly poisoning the node's
        outstanding-load estimate.  With placement enabled the
        registration runs admission control; a rejected subscriber stays
        hosted but unscheduled until capacity appears.
        """
        if any(s.name == subscriber.name for s in self.subscribers):
            raise ValueError(
                "subscriber {!r} already in the cluster".format(subscriber.name)
            )
        hosts = [s for s in self.webservers if subscriber.name not in s.sites]
        if hosts and files:
            self.fs.add_tree(site_docroot(subscriber.name), files)
        for server in hosts:
            server.host_site(subscriber.name)
        self.subscribers.append(subscriber)
        self.rdn.register_subscriber(subscriber)

    def remove_subscriber(self, name: str) -> None:
        """Leave mid-run: deregister from the control plane.

        The site stays hosted on the RPNs so in-flight requests complete
        and their usage is still attributed; the control plane stops
        classifying, queueing, and scheduling the name immediately.
        """
        self.rdn.deregister_subscriber(name)
        self.subscribers = [s for s in self.subscribers if s.name != name]

    def prewarm_caches(self) -> None:
        """Load every site file into every RPN's buffer cache.

        Benchmarks of steady-state behaviour call this before the run so
        the measurement window is not distorted by cold-start disk
        faulting of the whole document tree.
        """
        for machine in self.machines:
            for path, size in machine.fs.walk():
                machine.cache.insert(path, size)

    def run(self, duration_s: float) -> None:
        """Advance the simulation to ``duration_s``."""
        self.env.run(until=duration_s)
        # Parked subscribers' balances and gauges are as of their last
        # touch; make them exact before anyone reads the finished run.
        self.rdn.scheduler.sync()
        registry = get_registry()
        registry.tick()
        if registry.sinks:
            registry.flush(now=self.env.now)

    # -- results -------------------------------------------------------------------

    def service_report(
        self, name: str, start_s: float, end_s: float
    ) -> ServiceReport:
        """Input/served/dropped rates for one subscriber over a window."""
        subscriber = next(s for s in self.subscribers if s.name == name)
        duration = end_s - start_s
        arrived = sum(
            1 for at, host, _ok in self.arrivals if host == name and start_s <= at < end_s
        )
        served = sum(
            1 for at, host in self.completions if host == name and start_s <= at < end_s
        )
        if self.fidelity == "flow":
            dropped = sum(
                1
                for at, host, ok in self.arrivals
                if host == name and start_s <= at < end_s and not ok
            )
        else:
            # Packet mode: drops happen at the RDN queue; approximate the
            # windowed count by arrivals minus completions minus backlog
            # growth, bounded below by zero.
            dropped = max(0, arrived - served - len(self.rdn.queues.get(name) or []))
        return ServiceReport(
            subscriber=name,
            reservation_grps=subscriber.reservation_grps,
            duration_s=duration,
            arrived=arrived,
            served=served,
            dropped=dropped,
        )

    def all_reports(self, start_s: float, end_s: float) -> List[ServiceReport]:
        """Service reports for every subscriber."""
        return [
            self.service_report(subscriber.name, start_s, end_s)
            for subscriber in self.subscribers
        ]

    def completion_events_by_subscriber(self) -> Dict[str, List[Tuple[float, float]]]:
        """(time, GRPS-equivalent) usage events grouped by subscriber."""
        grouped: Dict[str, List[Tuple[float, float]]] = {}
        for at, host, weight in self.usage_events:
            grouped.setdefault(host, []).append((at, weight))
        return grouped
