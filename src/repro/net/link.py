"""Point-to-point network interfaces and links.

An :class:`Interface` is one end of a full-duplex link: it owns a bounded
transmit queue and a transmitter that serializes one frame at a time at
the configured bandwidth, then delivers to the peer interface after the
propagation latency.  Loss injection (for failure tests) drops frames
after serialization with a configurable probability.

The transmitter is a two-state (idle / serializing) callback machine, so
a hop costs exactly two engine events and no generator, ``Event`` or
closure:

1. **tx-done**, at ``now + size * 8.0 / bandwidth_bps`` evaluated at
   the instant the frame *starts* serializing — inside :meth:`send` on an
   idle interface, inside the previous frame's tx-done otherwise
   (``bandwidth_bps`` is read then, not when the frame was queued:
   ``Switch.attach`` rewrites it after construction), where ``size``
   is the frame's wire length, computed once in :meth:`send` and carried
   with the frame to both events.  It bumps
   ``tx_frames``/``tx_bytes``, checks ``peer`` and ``up``, draws the loss
   RNG (only when a peer is set and the interface is up), schedules the
   delivery, and starts the next waiting frame or goes idle.
2. **delivery**, at ``now + latency_s`` evaluated at the tx-done instant;
   the peer checks its own ``up`` and bumps ``rx_*``.

The two are separate events, never ``start + (ser + latency)``: fault
injection flips ``up`` mid-run, so the interface's state at the end of
serialization is observable, and the two float additions are part of the
bit-exact golden digests.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from repro.net.packet import ETH_IP_TCP_HEADER_LEN
from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet

#: Default: Fast Ethernet, as in the paper's testbed.
DEFAULT_BANDWIDTH_BPS = 100e6
#: One switch hop of propagation/forwarding latency.
DEFAULT_LATENCY_S = 20e-6
#: Default transmit queue depth, in frames.
DEFAULT_QUEUE_FRAMES = 512

ReceiveHook = Callable[["Packet", "Interface"], None]


class Interface:
    """One end of a full-duplex link.

    ``queue_frames`` bounds the frames *waiting* to be serialized; the
    frame on the wire is not one of them (nor is it in
    :attr:`queue_depth`), so an idle interface accepts ``queue_frames + 1``
    back-to-back sends.  Every instant is treated alike: there is no
    start-up event, so this holds from the instant of construction on.
    (The process-based transmitter this replaced counted the on-the-wire
    slot as a queue slot for sends issued in the very instant it was
    constructed, before its bootstrap event ran; no cluster run sends
    then, as the unchanged golden digests show.)
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        latency_s: float = DEFAULT_LATENCY_S,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        loss_rate: float = 0.0,
        loss_rng: Optional[random.Random] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must lie in [0, 1)")
        if queue_frames <= 0:
            raise ValueError("queue_frames must be positive")
        self.env = env
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.loss_rate = float(loss_rate)
        self._loss_rng = loss_rng or random.Random(0)
        self.peer: Optional[Interface] = None
        #: Administrative state: a downed interface neither transmits nor
        #: receives (frames are counted as losses) — failure injection.
        self.up = True
        #: Called with (packet, this interface) on frame arrival.
        self.on_receive: Optional[ReceiveHook] = None
        self._queue_frames = queue_frames
        self._waiting: Deque[Tuple["Packet", int]] = deque()
        self._busy = False
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.dropped_full = 0
        self.dropped_loss = 0

    def __repr__(self) -> str:
        return "<Interface {} tx={} rx={}>".format(self.name, self.tx_frames, self.rx_frames)

    def connect(self, other: "Interface") -> None:
        """Wire this interface and ``other`` as the two ends of one link."""
        if self.peer is not None or other.peer is not None:
            raise RuntimeError("interface already connected")
        self.peer = other
        other.peer = self

    @property
    def queue_depth(self) -> int:
        """Frames currently waiting to be serialized."""
        return len(self._waiting)

    def send(self, packet: "Packet") -> bool:
        """Queue a frame for transmission; False (and a drop) if full."""
        # The frame's wire length rides with it through tx-done and delivery.
        size = ETH_IP_TCP_HEADER_LEN + packet.payload_len
        if not self._busy:
            self._busy = True
            self.env.call_later(size * 8.0 / self.bandwidth_bps, self._tx_done, packet, size)
        elif len(self._waiting) >= self._queue_frames:
            self.dropped_full += 1
            return False
        else:
            self._waiting.append((packet, size))
        return True

    def _tx_done(self, packet: "Packet", size: int) -> None:
        """``packet`` has left the wire: count it, hand it on, start the next."""
        self.tx_frames += 1
        self.tx_bytes += size
        peer = self.peer
        if peer is not None:
            if not self.up:
                self.dropped_loss += 1
            elif self.loss_rate and self._loss_rng.random() < self.loss_rate:
                self.dropped_loss += 1
            else:
                self.env.call_later(self.latency_s, peer._deliver, packet, size)
        if self._waiting:
            following, size = self._waiting.popleft()
            self.env.call_later(size * 8.0 / self.bandwidth_bps, self._tx_done, following, size)
        else:
            self._busy = False

    def _deliver(self, packet: "Packet", size: int) -> None:
        if not self.up:
            self.dropped_loss += 1
            return
        self.rx_frames += 1
        self.rx_bytes += size
        if self.on_receive is not None:
            self.on_receive(packet, self)
