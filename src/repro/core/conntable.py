"""The RDN's connection table (§3.3).

"For all other packets, the primary RDN simply acts as a Layer-2 bridge
that forwards each incoming packet to its corresponding back-end RPN.
This routing is based on a connection table that is indexed on the
quadruple of the packet header ... After a URL request is dispatched to
an RPN, the packet's quadruple and the MAC address of the RPN is inserted
into this connection table, so that all the subsequent packets from the
client are routed to the corresponding RPN."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.addresses import MACAddress
from repro.net.conn import Quadruple

#: How long after observing a connection's FIN/RST its state (the RDN's
#: connection-table entry, the LSM's splice rule) lingers so retransmitted
#: teardown packets still route; then it is reclaimed.
LINGER_S = 2.0


@dataclass(frozen=True)
class ConnectionEntry:
    """Where one client connection's packets must be bridged to."""

    rpn_id: str
    rpn_mac: MACAddress


class ConnectionTable:
    """Quadruple → servicing-RPN map with hit/miss statistics."""

    def __init__(self) -> None:
        self._entries: Dict[Quadruple, ConnectionEntry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, quad: Quadruple) -> bool:
        return quad in self._entries

    def insert(self, quad: Quadruple, rpn_id: str, rpn_mac: MACAddress) -> None:
        """Bind a client connection to its servicing RPN."""
        self._entries[quad] = ConnectionEntry(rpn_id, rpn_mac)

    def lookup(self, quad: Quadruple) -> Optional[ConnectionEntry]:
        """The entry for ``quad``, counting hit/miss."""
        entry = self._entries.get(quad)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def remove(self, quad: Quadruple) -> Optional[ConnectionEntry]:
        """Drop one connection's entry (at teardown)."""
        return self._entries.pop(quad, None)

    def remove_rpn(self, rpn_id: str) -> "List[Quadruple]":
        """Drop every connection bridged to one RPN (node failure).

        Returns the removed quadruples so the caller can reset or
        re-route the affected clients.
        """
        quads = [
            quad for quad, entry in self._entries.items() if entry.rpn_id == rpn_id
        ]
        for quad in quads:
            del self._entries[quad]
        return quads

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
