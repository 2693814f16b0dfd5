"""A simplified TCP implementation for the packet-level simulator.

Implements what Gage's splicing machinery exercises: the three-way
handshake, MSS-segmented data transfer with cumulative ACKs, out-of-order
buffering, optional timeout retransmission (for loss-injection tests),
and FIN/RST teardown.  Sequence numbers live in the full 32-bit modular
space so the splicing delta arithmetic is tested for real.

Congestion and flow control are intentionally absent: the paper's testbed
switch is uncontended ("network contention effect is negligible", §4) and
Gage operates above TCP's transmission policy.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.net.addresses import IPAddress, MACAddress
from repro.net.conn import Quadruple
from repro.net.packet import (
    ACK_BIT,
    ACK_PSH,
    FIN_ACK,
    FIN_BIT,
    RST_BIT,
    SEQ_SPACE,
    SYN_ACK,
    SYN_BIT,
    Packet,
    TCPFlags,
)
from repro.sim.engine import Environment
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NIC, FrameFilter

#: Maximum segment size (Ethernet MTU 1500 - 40 bytes of IP/TCP headers).
DEFAULT_MSS = 1460

_HALF_SEQ_SPACE = SEQ_SPACE // 2


def seq_lt(a: int, b: int) -> bool:
    """True if ``a`` precedes ``b`` in sequence space (RFC 1982 style)."""
    return a != b and ((b - a) % SEQ_SPACE) < _HALF_SEQ_SPACE


def seq_leq(a: int, b: int) -> bool:
    """True if ``a`` equals or precedes ``b`` in sequence space."""
    return a == b or ((b - a) % SEQ_SPACE) < _HALF_SEQ_SPACE


class TCPState(enum.Enum):
    """Connection states (the subset this simulator traverses)."""

    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSING = "CLOSING"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"
    CLOSED = "CLOSED"


class ConnectionError_(Exception):
    """A connection failed (reset, or retransmission gave up)."""


class _EOF:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<EOF>"


class Connection:
    """One TCP connection endpoint.

    Application code uses :meth:`send`, :meth:`receive`, and :meth:`close`;
    each returns a simulation event.  ``receive`` yields
    ``(payload, length)`` tuples per arriving segment (the sender's payload
    object rides on the final segment of each :meth:`send`), or
    :data:`Connection.EOF` after the peer's FIN.
    """

    #: Sentinel delivered to receivers when the peer closes.
    EOF: ClassVar[_EOF] = _EOF()

    def __init__(self, stack: "HostStack", quad: Quadruple, isn: int) -> None:
        self.stack = stack
        self.env: Environment = stack.env
        self.quad = quad
        self.state = TCPState.CLOSED
        self.snd_isn = isn
        self.snd_nxt = isn
        self.snd_una = isn
        self.rcv_isn: Optional[int] = None
        self.rcv_nxt: Optional[int] = None
        #: Fires with this connection once the handshake completes.
        self.established: Event = Event(self.env)
        #: Fires once the connection reaches CLOSED.
        self.closed: Event = Event(self.env)
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Free-form annotations (used by Gage to tag subscriber/request).
        self.user_data: Dict[str, object] = {}
        self._recv_ready: List[Tuple[object, int]] = []
        self._recv_waiters: List[Event] = []
        self._ooo: Dict[int, Packet] = {}
        self._send_waiters: List[Tuple[int, Event]] = []
        self._fin_sent = False
        self._eof_delivered = False
        self._failed: Optional[BaseException] = None

    def __repr__(self) -> str:
        return "<Connection {} {}>".format(self.quad, self.state.value)

    # -- application interface -----------------------------------------

    def send(self, length: int, payload: object = None) -> Event:
        """Transmit ``length`` bytes; event fires when fully acknowledged.

        ``payload`` (an arbitrary object standing for the bytes) is carried
        on the final segment so the receiver can recover application-level
        framing without the simulator materializing buffers.
        """
        if self.state not in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            raise ConnectionError_(
                "send on connection in state {}".format(self.state.value)
            )
        if length <= 0:
            raise ValueError("send length must be positive")
        mss = self.stack.mss
        done = Event(self.env)
        offset = 0
        while offset < length:
            chunk = min(mss, length - offset)
            last = offset + chunk >= length
            packet = self.stack._make_packet(
                self.quad,
                flags=ACK_PSH if last else TCPFlags.ACK,
                seq=self.snd_nxt,
                ack=self.rcv_nxt or 0,
                payload=payload if last else None,
                payload_len=chunk,
            )
            self.snd_nxt = (self.snd_nxt + chunk) % SEQ_SPACE
            offset += chunk
            self.stack._transmit(packet)
            self.stack._arm_retransmit(self, packet)
        self._send_waiters.append((self.snd_nxt, done))
        self.bytes_sent += length
        return done

    def receive(self) -> Event:
        """Event firing with the next ``(payload, length)`` chunk or EOF."""
        event = Event(self.env)
        if self._failed is not None:
            event.fail(self._failed)
        elif self._recv_ready:
            event.succeed(self._recv_ready.pop(0))
        elif self._eof_delivered:
            event.succeed((Connection.EOF, 0))
        else:
            self._recv_waiters.append(event)
        return event

    def close(self) -> Event:
        """Send FIN (half-close); returns the :attr:`closed` event."""
        if self.state is TCPState.ESTABLISHED:
            self._send_fin()
            self.state = TCPState.FIN_WAIT_1
        elif self.state is TCPState.CLOSE_WAIT:
            self._send_fin()
            self.state = TCPState.LAST_ACK
        elif self.state in (TCPState.SYN_SENT, TCPState.SYN_RCVD):
            self._enter_closed()
        return self.closed

    def abort(self) -> None:
        """Send RST and tear the connection down immediately."""
        if self.state not in (TCPState.CLOSED, TCPState.TIME_WAIT):
            packet = self.stack._make_packet(
                self.quad,
                flags=TCPFlags.RST,
                seq=self.snd_nxt,
                ack=self.rcv_nxt or 0,
            )
            self.stack._transmit(packet)
        self._fail(ConnectionError_("connection aborted locally"))

    # -- internals -------------------------------------------------------

    def _send_fin(self) -> None:
        packet = self.stack._make_packet(
            self.quad,
            flags=FIN_ACK,
            seq=self.snd_nxt,
            ack=self.rcv_nxt or 0,
        )
        self.snd_nxt = (self.snd_nxt + 1) % SEQ_SPACE
        self._fin_sent = True
        self.stack._transmit(packet)
        self.stack._arm_retransmit(self, packet)

    def _enter_established(self) -> None:
        self.state = TCPState.ESTABLISHED
        if not self.established.triggered:
            self.established.succeed(self)

    def _enter_closed(self) -> None:
        if self.state is TCPState.CLOSED and self.closed.triggered:
            return
        self.state = TCPState.CLOSED
        self.stack._forget(self)
        if not self.closed.triggered:
            self.closed.succeed(self)

    def _enter_time_wait(self) -> None:
        self.state = TCPState.TIME_WAIT
        if self.stack.time_wait_s > 0:
            self.env.call_later(self.stack.time_wait_s, self._enter_closed)
        else:
            self._enter_closed()

    def _fail(self, exc: BaseException) -> None:
        self._failed = exc

        def fail_defused(event: Event) -> None:
            # A connection failure is an expected outcome, not a
            # programming error: if nobody happens to be waiting on this
            # particular event, it must not crash the event loop.
            event._defused = True
            event.fail(exc)

        for waiter in self._recv_waiters:
            fail_defused(waiter)
        self._recv_waiters.clear()
        for _end, waiter in self._send_waiters:
            if not waiter.triggered:
                fail_defused(waiter)
        self._send_waiters.clear()
        if not self.established.triggered:
            fail_defused(self.established)
        self._enter_closed()

    def _deliver(self, payload: object, length: int) -> None:
        self.bytes_received += length
        chunk = (payload, length)
        if self._recv_waiters:
            self._recv_waiters.pop(0).succeed(chunk)
        else:
            self._recv_ready.append(chunk)

    def _deliver_eof(self) -> None:
        if self._eof_delivered:
            return
        self._eof_delivered = True
        for waiter in self._recv_waiters:
            waiter.succeed((Connection.EOF, 0))
        self._recv_waiters.clear()

    def _acknowledge(self, ack: int) -> None:
        # seq_lt(snd_una, ack) and seq_leq(ack, snd_nxt), without the calls.
        una = self.snd_una
        if (
            ack != una
            and (ack - una) % SEQ_SPACE < _HALF_SEQ_SPACE
            and (self.snd_nxt - ack) % SEQ_SPACE < _HALF_SEQ_SPACE
        ):
            self.snd_una = ack
        if not self._send_waiters:
            return
        still_waiting = []
        for end_seq, event in self._send_waiters:
            if seq_leq(end_seq, self.snd_una):
                if not event.triggered:
                    event.succeed(None)
            else:
                still_waiting.append((end_seq, event))
        self._send_waiters = still_waiting

    def _send_ack(self) -> None:
        packet = self.stack._make_packet(
            self.quad,
            flags=TCPFlags.ACK,
            seq=self.snd_nxt,
            ack=self.rcv_nxt or 0,
        )
        self.stack._transmit(packet)

    def handle(self, packet: Packet) -> None:
        """Advance the state machine with one arriving segment."""
        flag_bits = packet.flags._value_
        if flag_bits & RST_BIT:
            self._fail(ConnectionError_("connection reset by peer"))
            return

        if self.state is TCPState.SYN_SENT:
            if flag_bits & SYN_BIT and flag_bits & ACK_BIT:
                if packet.ack != (self.snd_isn + 1) % SEQ_SPACE:
                    return  # stale or bogus SYN-ACK
                self.rcv_isn = packet.seq
                self.rcv_nxt = (packet.seq + 1) % SEQ_SPACE
                self.snd_una = packet.ack
                self._send_ack()
                self._enter_established()
            return

        if self.state is TCPState.SYN_RCVD:
            if flag_bits & ACK_BIT and packet.ack == self.snd_nxt:
                self.snd_una = packet.ack
                self._enter_established()
                self.stack._notify_accept(self)
                # The handshake ACK may already carry data; fall through.
            else:
                return

        if flag_bits & ACK_BIT:
            self._acknowledge(packet.ack)
            if self.state is TCPState.FIN_WAIT_1 and self.snd_una == self.snd_nxt:
                self.state = TCPState.FIN_WAIT_2
            elif self.state is TCPState.CLOSING and self.snd_una == self.snd_nxt:
                self._enter_time_wait()
            elif self.state is TCPState.LAST_ACK and self.snd_una == self.snd_nxt:
                self._enter_closed()
                return

        if packet.payload_len > 0:
            self._handle_data(packet)

        if flag_bits & FIN_BIT:
            self._handle_fin(packet)

    def _handle_data(self, packet: Packet) -> None:
        assert self.rcv_nxt is not None
        if packet.seq == self.rcv_nxt:
            self.rcv_nxt = (self.rcv_nxt + packet.payload_len) % SEQ_SPACE
            self._deliver(packet.payload, packet.payload_len)
            # Drain any contiguous out-of-order segments.
            while self.rcv_nxt in self._ooo:
                buffered = self._ooo.pop(self.rcv_nxt)
                self.rcv_nxt = (self.rcv_nxt + buffered.payload_len) % SEQ_SPACE
                self._deliver(buffered.payload, buffered.payload_len)
            self._send_ack()
        elif seq_lt(packet.seq, self.rcv_nxt):
            self._send_ack()  # duplicate; re-ACK so the sender advances
        else:
            self._ooo[packet.seq] = packet
            self._send_ack()  # dup-ACK for the gap

    def _handle_fin(self, packet: Packet) -> None:
        if self.rcv_nxt is None or packet.seq != self.rcv_nxt:
            return  # FIN out of order; ignore (retransmission will retry)
        self.rcv_nxt = (self.rcv_nxt + 1) % SEQ_SPACE
        self._send_ack()
        self._deliver_eof()
        if self.state is TCPState.ESTABLISHED:
            self.state = TCPState.CLOSE_WAIT
        elif self.state is TCPState.FIN_WAIT_1:
            # Peer's FIN arrived before (or with) the ACK of ours.
            if self.snd_una == self.snd_nxt:
                self._enter_time_wait()
            else:
                self.state = TCPState.CLOSING
        elif self.state is TCPState.FIN_WAIT_2:
            self._enter_time_wait()


Acceptor = Callable[[Connection], None]


class HostStack:
    """Per-host TCP/IP endpoint: demultiplexing, handshakes, ARP.

    Parameters
    ----------
    env, ip, nic:
        Simulation environment, the host's IP, and its NIC.
    isn_rng:
        Callable returning initial sequence numbers (defaults to a
        deterministic counter; pass a seeded RNG's ``randrange`` for
        realistic ISNs).
    """

    def __init__(
        self,
        env: Environment,
        ip: IPAddress,
        nic: "NIC",
        isn_rng: Optional[Callable[[], int]] = None,
        mss: int = DEFAULT_MSS,
        rto_s: float = 0.2,
        max_retries: int = 8,
        retransmit: bool = True,
        time_wait_s: float = 0.0,
    ) -> None:
        self.env = env
        self.ip = ip
        self.nic = nic
        self.mss = int(mss)
        self.rto_s = float(rto_s)
        self.max_retries = int(max_retries)
        self.retransmit = bool(retransmit)
        self.time_wait_s = float(time_wait_s)
        self._isn_rng = isn_rng or self._sequential_isn()
        #: Static ARP table; unknown destinations go to ``default_mac``.
        self.arp: Dict[IPAddress, MACAddress] = {}
        self.default_mac: Optional[MACAddress] = None
        self._conns: Dict[Quadruple, Connection] = {}
        self._listeners: Dict[int, Acceptor] = {}
        self._filter: Optional["FrameFilter"] = None
        self._next_port = 10000
        self.rx_no_connection = 0
        nic.receive_handler = self._from_wire

    @staticmethod
    def _sequential_isn() -> Callable[[], int]:
        counter = [1000]

        def next_isn() -> int:
            counter[0] = (counter[0] + 64000) % SEQ_SPACE
            return counter[0]

        return next_isn

    def __repr__(self) -> str:
        return "<HostStack {} conns={}>".format(self.ip, len(self._conns))

    # -- wiring -----------------------------------------------------------

    def attach_filter(self, frame_filter: "FrameFilter") -> None:
        """Install a below-IP frame filter (Gage's LSM interposition point)."""
        self._filter = frame_filter

    @property
    def connections(self) -> Dict[Quadruple, Connection]:
        """Live connections keyed by local-view quadruple."""
        return self._conns

    def ephemeral_port(self) -> int:
        """Allocate the next client-side port."""
        port = self._next_port
        self._next_port += 1
        if self._next_port > 0xFFFF:
            self._next_port = 10000
        return port

    # -- application API ---------------------------------------------------

    def listen(self, port: int, acceptor: Acceptor) -> None:
        """Accept connections on ``port``; ``acceptor(conn)`` on establish."""
        if port in self._listeners:
            raise RuntimeError("port {} already listening".format(port))
        self._listeners[port] = acceptor

    def connect(
        self, dst_ip: IPAddress, dst_port: int, src_port: Optional[int] = None
    ) -> Connection:
        """Open a connection; wait on ``conn.established``."""
        if src_port is None:
            src_port = self.ephemeral_port()
        quad = Quadruple(self.ip, src_port, dst_ip, dst_port)
        if quad in self._conns:
            raise RuntimeError("connection already exists: {}".format(quad))
        conn = Connection(self, quad, isn=self._isn_rng())
        conn.state = TCPState.SYN_SENT
        self._conns[quad] = conn
        packet = self._make_packet(
            quad, flags=TCPFlags.SYN, seq=conn.snd_nxt, ack=0
        )
        conn.snd_nxt = (conn.snd_nxt + 1) % SEQ_SPACE
        self._transmit(packet)
        self._arm_retransmit(conn, packet)
        return conn

    # -- packet paths -------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Deliver a packet into the stack as if it arrived from the wire,
        bypassing the frame filter (used by the local service manager)."""
        self.receive(packet)

    def _from_wire(self, packet: Packet) -> None:
        if self._filter is not None:
            filtered = self._filter.inbound(packet)
            if filtered is None:
                return
            packet = filtered
        self.receive(packet)

    def receive(self, packet: Packet) -> None:
        """Demultiplex one inbound segment."""
        if packet.dst_ip != self.ip:
            return
        key = tuple.__new__(
            Quadruple, (packet.dst_ip, packet.dst_port, packet.src_ip, packet.src_port)
        )
        conn = self._conns.get(key)
        if conn is not None:
            conn.handle(packet)
            return
        flag_bits = packet.flags._value_
        if flag_bits & SYN_BIT and not flag_bits & ACK_BIT:
            acceptor = self._listeners.get(packet.dst_port)
            if acceptor is not None:
                self._accept_syn(packet, key)
                return
        self.rx_no_connection += 1
        if not flag_bits & RST_BIT:
            reset = self._make_packet(
                key, flags=TCPFlags.RST, seq=packet.ack, ack=0
            )
            self._transmit(reset)

    def _accept_syn(self, packet: Packet, key: Quadruple) -> None:
        conn = Connection(self, key, isn=self._isn_rng())
        conn.state = TCPState.SYN_RCVD
        conn.rcv_isn = packet.seq
        conn.rcv_nxt = (packet.seq + 1) % SEQ_SPACE
        self._conns[key] = conn
        synack = self._make_packet(
            key,
            flags=SYN_ACK,
            seq=conn.snd_nxt,
            ack=conn.rcv_nxt,
        )
        conn.snd_nxt = (conn.snd_nxt + 1) % SEQ_SPACE
        self._transmit(synack)
        self._arm_retransmit(conn, synack)

    def _notify_accept(self, conn: Connection) -> None:
        acceptor = self._listeners.get(conn.quad.src_port)
        if acceptor is not None:
            acceptor(conn)

    def _forget(self, conn: Connection) -> None:
        existing = self._conns.get(conn.quad)
        if existing is conn:
            del self._conns[conn.quad]

    def _make_packet(
        self,
        quad: Quadruple,
        flags: TCPFlags,
        seq: int,
        ack: int,
        payload: object = None,
        payload_len: int = 0,
    ) -> Packet:
        dst_mac = self.arp.get(quad.dst_ip) or self.default_mac
        if dst_mac is None:
            dst_mac = MACAddress.broadcast()
        return Packet(
            self.nic.mac,
            dst_mac,
            quad.src_ip,
            quad.dst_ip,
            quad.src_port,
            quad.dst_port,
            seq,
            ack,
            flags,
            payload,
            payload_len,
        )

    def _transmit(self, packet: Packet) -> None:
        if self._filter is not None:
            filtered = self._filter.outbound(packet)
            if filtered is None:
                return
            packet = filtered
        self.nic.transmit(packet)

    def _arm_retransmit(self, conn: Connection, packet: Packet) -> None:
        if not self.retransmit:
            return
        self._schedule_retransmit(conn, packet, retries_left=self.max_retries)

    def _schedule_retransmit(
        self, conn: Connection, packet: Packet, retries_left: int
    ) -> None:
        end_seq = (
            packet.seq
            + packet.payload_len
            + (1 if packet.flags._value_ & (SYN_BIT | FIN_BIT) else 0)
        ) % SEQ_SPACE
        self.env.call_later(
            self.rto_s, self._check_retransmit, conn, packet, end_seq, retries_left
        )

    def _check_retransmit(
        self, conn: Connection, packet: Packet, end_seq: int, retries_left: int
    ) -> None:
        if conn.state is TCPState.CLOSED:
            return
        if seq_leq(end_seq, conn.snd_una):
            return  # acknowledged; nothing to do
        if retries_left <= 0:
            conn._fail(ConnectionError_("retransmission limit reached"))
            return
        self._transmit(packet.copy())
        self._schedule_retransmit(conn, packet, retries_left - 1)
