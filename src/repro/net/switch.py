"""A store-and-forward learning Ethernet switch.

Models the paper's testbed interconnect: a 16-port Fast Ethernet switch
with a cross-section bandwidth high enough that "network contention effect
is negligible" — each port has its own full-rate egress queue, so flows on
disjoint port pairs never interfere.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addresses import MACAddress
from repro.net.link import Interface
from repro.net.packet import Packet
from repro.sim.engine import Environment


class Switch:
    """An N-port learning switch."""

    def __init__(
        self,
        env: Environment,
        ports: int = 16,
        name: str = "switch",
        bandwidth_bps: float = 100e6,
        latency_s: float = 5e-6,
        mac_aging_s: Optional[float] = None,
    ) -> None:
        if ports < 2:
            raise ValueError("a switch needs at least 2 ports")
        if mac_aging_s is not None and mac_aging_s <= 0:
            raise ValueError("MAC aging time must be positive")
        self.env = env
        self.name = name
        #: Learned entries older than this are forgotten (None = never) —
        #: real switches age entries out after ~300 s.
        self.mac_aging_s = mac_aging_s
        self.ports: List[Interface] = []
        for index in range(ports):
            port = Interface(
                env,
                "{}.p{}".format(name, index),
                bandwidth_bps=bandwidth_bps,
                latency_s=latency_s,
            )
            port.on_receive = self._on_frame
            self.ports.append(port)
        self._mac_table: Dict[MACAddress, "Tuple[Interface, float]"] = {}
        self.forwarded = 0
        self.flooded = 0

    def __repr__(self) -> str:
        return "<Switch {} ports={} learned={}>".format(
            self.name, len(self.ports), len(self._mac_table)
        )

    def free_port(self) -> Interface:
        """The lowest-numbered unconnected port."""
        for port in self.ports:
            if port.peer is None:
                return port
        raise RuntimeError("switch {} has no free ports".format(self.name))

    def attach(
        self,
        iface: Interface,
        bandwidth_bps: Optional[float] = None,
        latency_s: Optional[float] = None,
    ) -> Interface:
        """Connect a host interface to the next free port; returns the port.

        ``bandwidth_bps``/``latency_s`` override the port's link
        parameters before connecting, so a tiered topology can give each
        access link its own rate (the egress queue toward a slow host
        serializes at the slow link's speed, not the fabric default).
        """
        port = self.free_port()
        if bandwidth_bps is not None:
            if bandwidth_bps <= 0:
                raise ValueError("port bandwidth must be positive")
            port.bandwidth_bps = float(bandwidth_bps)
        if latency_s is not None:
            if latency_s < 0:
                raise ValueError("port latency must be non-negative")
            port.latency_s = float(latency_s)
        port.connect(iface)
        return port

    def interconnect(
        self,
        other: "Switch",
        bandwidth_bps: Optional[float] = None,
        latency_s: Optional[float] = None,
    ) -> Tuple[Interface, Interface]:
        """Trunk this switch to ``other`` over one port pair (an uplink).

        Both ends take the uplink tier's parameters.  Learning and
        flooding compose across the trunk: frames for hosts behind the
        far switch are forwarded (or flooded) out the uplink port and
        re-switched there.  Keep the fabric a tree — the learning switch
        has no spanning-tree protocol, so a loop floods forever.
        """
        local = self.free_port()
        remote = other.free_port()
        for port in (local, remote):
            if bandwidth_bps is not None:
                if bandwidth_bps <= 0:
                    raise ValueError("uplink bandwidth must be positive")
                port.bandwidth_bps = float(bandwidth_bps)
            if latency_s is not None:
                if latency_s < 0:
                    raise ValueError("uplink latency must be non-negative")
                port.latency_s = float(latency_s)
        local.connect(remote)
        return local, remote

    def _on_frame(self, packet: Packet, ingress: Interface) -> None:
        now = self.env.now
        self._mac_table[packet.src_mac] = (ingress, now)
        dst_mac = packet.dst_mac
        if dst_mac.is_broadcast:
            self._flood(packet, ingress)
            return
        # The learned egress port; an expired entry is dropped on sight.
        entry = self._mac_table.get(dst_mac)
        if entry is not None and self.mac_aging_s is not None and now - entry[1] > self.mac_aging_s:
            del self._mac_table[dst_mac]
            entry = None
        if entry is None:
            self._flood(packet, ingress)
            return
        egress = entry[0]
        if egress is ingress:
            return  # destination is back where it came from; drop
        self.forwarded += 1
        egress.send(packet)

    def _flood(self, packet: Packet, ingress: Interface) -> None:
        self.flooded += 1
        for port in self.ports:
            if port is not ingress and port.peer is not None:
                port.send(packet)
