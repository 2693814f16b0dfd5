"""Request classification at the primary RDN (§3.3).

"The primary RDN classifies an incoming packet into three categories:
(1) SYN or ACK packets that are involved in TCP's three-way hand-shake
procedure, (2) packets that contain a URL-based web access request and
(3) all other packets."

The *service-specific* part (§3.6) is how a request payload maps to a
subscriber — for the web service, the host-name part of the URL.  That
mapping is a pluggable callable so the same classifier serves other
Internet services (e.g. user IDs in an application-layer header).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.subscriber import SubscriberTable
from repro.net.packet import SYN_BIT, Packet
from repro.telemetry.registry import get_registry


class PacketClass(enum.Enum):
    """The three §3.3 packet categories."""

    HANDSHAKE = "handshake"
    REQUEST = "request"
    OTHER = "other"


@dataclass(frozen=True)
class Classification:
    """The classifier's verdict on one packet."""

    packet_class: PacketClass
    subscriber: Optional[str] = None  # set only for REQUEST packets
    #: The subscriber's dense interned id when the classifier shares a
    #: :class:`~repro.core.subscriber.SubscriberTable`; -1 otherwise.
    sid: int = -1


#: Extracts the service-specific subscriber key from a request payload.
HostExtractor = Callable[[object], Optional[str]]

#: Shared verdicts for the two subscriber-less classes.  Classification
#: is a frozen value object compared via ``packet_class``, so every
#: caller can receive the same instance; building a frozen dataclass per
#: packet was a measurable slice of the per-packet budget.
_HANDSHAKE = Classification(PacketClass.HANDSHAKE)
_OTHER = Classification(PacketClass.OTHER)


def web_host_extractor(payload: object) -> Optional[str]:
    """The web-service instance: the Host: part of the URL request."""
    return getattr(payload, "host", None)


class RequestClassifier:
    """Maps packets to {handshake, request, other} and requests to subscribers."""

    def __init__(
        self,
        host_extractor: HostExtractor = web_host_extractor,
        table: Optional[SubscriberTable] = None,
    ) -> None:
        self._host_extractor = host_extractor
        #: The shared subscriber-id table, when the RDN threads one
        #: through: REQUEST verdicts then carry the dense id so
        #: downstream lookups skip the name-keyed dict.
        self.table = table
        self._subscribers: Dict[str, str] = {}
        #: subscriber name -> its (immutable, shareable) REQUEST verdict.
        self._request_verdicts: Dict[str, Classification] = {}
        self.classified = 0
        self.unknown_subscriber = 0
        self._tm_unknown = get_registry().counter(
            "repro.scheduler.unknown_subscriber"
        )

    def register_host(self, host: str, subscriber: str) -> None:
        """Bind a host name to a subscriber (a subscriber may own many)."""
        self._subscribers[host] = subscriber

    def unregister_subscriber(self, subscriber: str) -> None:
        """Drop every host binding and memoized verdict of a departing
        subscriber (churn): later requests for its hosts classify as
        unknown instead of resolving to a dead queue."""
        self._request_verdicts.pop(subscriber, None)
        for host in [h for h, s in self._subscribers.items() if s == subscriber]:
            del self._subscribers[host]

    def subscriber_for_host(self, host: str) -> Optional[str]:
        """The subscriber owning ``host``, or None."""
        return self._subscribers.get(host)

    def classify_payload(self, payload: object) -> Optional[str]:
        """The subscriber a request payload belongs to, or None."""
        host = self._host_extractor(payload)
        if host is None:
            return None
        subscriber = self._subscribers.get(host)
        if subscriber is None:
            self.unknown_subscriber += 1
            self._tm_unknown.inc()
        return subscriber

    def classify(self, packet: Packet) -> Classification:
        """Classify one packet per §3.3."""
        self.classified += 1
        if packet.flags._value_ & SYN_BIT:
            return _HANDSHAKE
        if packet.payload_len > 0:
            subscriber = self.classify_payload(packet.payload)
            if subscriber is not None:
                verdict = self._request_verdicts.get(subscriber)
                if verdict is None:
                    sid = -1
                    if self.table is not None:
                        found = self.table.get_id(subscriber)
                        if found is not None:
                            sid = found
                    verdict = Classification(
                        PacketClass.REQUEST, subscriber=subscriber, sid=sid
                    )
                    self._request_verdicts[subscriber] = verdict
                return verdict
        # Everything else — including bare ACKs, which may complete a
        # handshake the RDN is emulating or acknowledge spliced data; the
        # RDN decides by connection state, so they are reported as OTHER
        # and re-examined there.
        return _OTHER
