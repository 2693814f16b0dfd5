"""Byte-stream splicing for the asyncio deployment.

The userspace analogue of the paper's TCP connection splicing: once the
front end has classified a request and chosen a back end, the two sockets
are joined by relaying bytes.  (In-kernel Gage rewrites sequence numbers
so the back end answers the client directly; from userspace the bytes
must flow through the proxy — the known fidelity cost of this
deployment, documented in DESIGN.md.)

Two write paths, each counted in :data:`splice_stats`:

- :func:`vectored_write` — a head + body piece list in one direct
  ``sendmsg``/``writev`` syscall when the destination transport's write
  buffer is empty (so ordering cannot be violated), the transport's
  buffered ``write`` otherwise.  The back end sends every response this
  way, and :func:`splice_exactly` sends the message head together with
  whatever body bytes the head parse already pulled in.
- :class:`_SpliceProtocol` — the rest of a body.  It is swapped onto
  the *source* transport for one bounded copy as an
  :class:`asyncio.BufferedProtocol`: the source socket reads into one
  reused buffer and each chunk goes straight on to the destination, with
  no ``StreamReader`` in between.  Backpressure is transport flow
  control: past the destination's high-water mark the source is
  ``pause_reading()``-ed until the destination drains.

**A transport is only ever handed bytes it may keep.**  Borrowed memory
(a view of a ``StreamReader`` buffer or of the splice buffer, both
reused or resized once the call returns) leaves only through a direct
``sendmsg``; whatever part of it the socket did not take is copied to
``bytes`` before it reaches ``write``.  Python 3.11's transport copies
what it is given, but 3.12's keeps the objects themselves, so a view
handed to it would see its buffer overwritten while still queued, and
resizing the ``StreamReader`` buffer would raise ``BufferError``.

:func:`relay_exactly` is the stream fallback for readers or writers
without a real transport (test doubles); it drains only past the
destination's high-water mark and refuses to write into a transport
that is already closing.
"""

from __future__ import annotations

import asyncio
import os
import socket
from typing import List, Optional, Sequence, Union

#: Read size of the stream fallback, of the splice buffer and of every
#: tuned transport, bytes.
RELAY_CHUNK = 64 * 1024

#: Destination write-buffer watermarks, bytes.  ``drain()``/
#: ``pause_reading()`` engage above HIGH and release below LOW; sized
#: well above one relay chunk so steady-state relaying never stalls on
#: flow control.
WRITE_HIGH_WATER = 256 * 1024
WRITE_LOW_WATER = 64 * 1024

#: Kernel socket send/receive buffer request, bytes.
SOCKET_BUFFER_BYTES = 256 * 1024

#: One buffer piece as accepted by ``sendmsg``/``writelines``.
Piece = Union[bytes, bytearray, memoryview]


class SpliceStats:
    """Process-wide counters for which write path actually ran.

    Purely observational (no control-flow reads them): benchmarks stamp
    these into ``perf_`` keys and the integration tests assert the
    zero-copy paths really engaged rather than silently falling back.
    """

    __slots__ = (
        "sendmsg_writes",
        "sendmsg_bytes",
        "buffered_writes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sendmsg_writes = 0
        self.sendmsg_bytes = 0
        self.buffered_writes = 0

    def snapshot(self) -> dict:
        return {
            "sendmsg_writes": self.sendmsg_writes,
            "sendmsg_bytes": self.sendmsg_bytes,
            "buffered_writes": self.buffered_writes,
        }

    def __repr__(self) -> str:
        return "<SpliceStats {}>".format(self.snapshot())


#: The process-wide instance (per worker process; workers do not share it).
splice_stats = SpliceStats()

#: ``Task.uncancel`` (3.11+) tells our expiry from a cancel from outside.
_UNCANCEL = hasattr(asyncio.Task, "uncancel")


class timeout:
    """``with timeout(seconds):`` bounds the enclosed awaits; every proxy wait uses it.

    On expiry one ``call_later`` handle cancels the current task, and the
    block re-raises that as ``asyncio.TimeoutError``; where ``Task.uncancel``
    exists, a cancel from outside still propagates.  Unlike
    ``asyncio.wait_for`` on older Pythons, it wraps nothing in a task.
    """

    __slots__ = ("_seconds", "_task", "_handle", "_expired", "_cancelling")

    def __init__(self, seconds: float) -> None:
        self._seconds = seconds

    def __enter__(self) -> None:
        self._task = task = asyncio.current_task()
        self._expired = False
        self._cancelling = task.cancelling() if _UNCANCEL else 0
        self._handle = task.get_loop().call_later(self._seconds, self._expire)

    def _expire(self) -> None:
        self._expired = True
        self._task.cancel()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._handle.cancel()
        if not self._expired:
            return
        if _UNCANCEL and self._task.uncancel() > self._cancelling:
            return  # cancelled from outside as well: that cancel wins
        if exc_type is not None and issubclass(exc_type, asyncio.CancelledError):
            raise asyncio.TimeoutError from exc


def tune_transport(transport) -> None:
    """Throughput-tune one TCP transport.

    ``TCP_NODELAY`` (no Nagle stalls on head-then-body writes), larger
    kernel socket buffers, write-buffer watermarks matched to the relay's
    flow-control thresholds, and reads of at most :data:`RELAY_CHUNK`.
    The selector transport reads up to 256 KiB into a fresh ``bytes``
    per ``recv``; at that size malloc maps new pages for every read, and
    a 256 KB response read that way cost the proxy ≈56 minor page faults
    (≈0.15 ms of CPU) per request on a 2-core x86-64 VM under Python
    3.11.  Best-effort: a transport or OS that refuses any knob keeps
    its defaults.
    """
    if transport is None:
        return
    transport.max_size = RELAY_CHUNK
    sock = transport.get_extra_info("socket")
    if sock is not None and sock.family in (socket.AF_INET, socket.AF_INET6):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SOCKET_BUFFER_BYTES)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SOCKET_BUFFER_BYTES)
        except OSError:
            pass
    try:
        transport.set_write_buffer_limits(
            high=WRITE_HIGH_WATER, low=WRITE_LOW_WATER
        )
    except (AttributeError, NotImplementedError):
        pass


def _transport_of(writer):
    return getattr(writer, "transport", None)


def destination_closing(writer) -> bool:
    """Whether the writer's transport is already shutting down."""
    transport = _transport_of(writer)
    return transport is not None and transport.is_closing()


def over_high_water(writer) -> bool:
    """Whether the writer's transport buffer is past its high-water mark.

    Unknown transports (test doubles) report True so the stream relay
    falls back to draining conservatively.
    """
    transport = _transport_of(writer)
    if transport is None:
        return True
    try:
        high = transport.get_write_buffer_limits()[1]
        return transport.get_write_buffer_size() > high
    except (AttributeError, NotImplementedError):
        return True


def _direct_socket(writer) -> Optional[socket.socket]:
    """The destination's raw TCP socket, when writing to it directly is safe.

    Safe means: a real transport, not closing, not TLS, and — critically —
    an **empty** transport write buffer, so bytes pushed straight into the
    socket cannot overtake bytes the transport already queued.
    """
    transport = _transport_of(writer)
    if transport is None or transport.is_closing():
        return None
    try:
        if transport.get_write_buffer_size() != 0:
            return None
        if transport.get_extra_info("sslcontext") is not None:
            return None
        sock = transport.get_extra_info("socket")
    except (AttributeError, NotImplementedError):
        return None
    if sock is None:
        return None
    try:
        if sock.family not in (socket.AF_INET, socket.AF_INET6):
            return None
    except AttributeError:
        return None
    return sock


def _tail_after(pieces: List[Piece], sent: int) -> List[Piece]:
    """The piece views remaining after ``sent`` bytes went out."""
    remainder: List[Piece] = []
    skipped = 0
    for piece in pieces:
        length = len(piece)
        if skipped + length <= sent:
            skipped += length
            continue
        start = sent - skipped if skipped < sent else 0
        remainder.append(memoryview(piece)[start:] if start else piece)
        skipped += length
    return remainder


def vectored_write(writer, pieces: Sequence[Piece]) -> int:
    """Write a head+body piece list, preferring one ``sendmsg`` syscall.

    When the transport's write buffer is empty the whole piece list goes
    out with a single vectored ``socket.sendmsg`` straight from the
    pieces — no copy into the transport buffer, no extra syscalls.  The
    pieces may be borrowed memory: any unsent tail (a short write on a
    full socket buffer), and every piece in an unsafe case, is copied to
    one ``bytes`` before the transport sees it.  Either way all bytes are
    accepted, with backpressure still signalled by the transport's
    watermarks.  Returns the number of bytes that went out directly
    (0 = fully buffered).
    """
    pieces = [piece for piece in pieces if len(piece)]
    if not pieces:
        return 0
    sent = 0
    sock = _direct_socket(writer)
    if sock is not None:
        try:
            # Real sockets expose sendmsg; asyncio's TransportSocket
            # wrapper (3.9+) strips the I/O methods, so go through the
            # fd with writev — the identical vectored syscall without
            # ancillary data.
            sendmsg = getattr(sock, "sendmsg", None)
            if sendmsg is not None:
                sent = sendmsg(pieces)
            else:
                sent = os.writev(sock.fileno(), pieces)
        except (BlockingIOError, InterruptedError, ValueError):
            sent = 0
        except OSError:
            # A hard socket error: hand the bytes to the transport, which
            # owns failure detection and will surface it to the caller.
            sent = 0
        if sent:
            splice_stats.sendmsg_writes += 1
            splice_stats.sendmsg_bytes += sent
            pieces = _tail_after(pieces, sent)
            if not pieces:
                return sent
    splice_stats.buffered_writes += 1
    writer.write(b"".join(pieces))
    return sent


async def relay_exactly(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, nbytes: int
) -> int:
    """Copy exactly ``nbytes`` from ``reader`` to ``writer`` (stream path).

    Returns the number of bytes copied; raises ``IncompleteReadError`` if
    the source ends early, ``ConnectionResetError`` if the destination
    transport closes mid-copy.  Drains only past the high-water mark;
    the caller owns the final flush.
    """
    remaining = nbytes
    copied = 0
    while remaining > 0:
        chunk = await reader.read(min(RELAY_CHUNK, remaining))
        if not chunk:
            raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
        if destination_closing(writer):
            raise ConnectionResetError("destination closed during relay")
        writer.write(chunk)
        copied += len(chunk)
        remaining -= len(chunk)
        if remaining and over_high_water(writer):
            await writer.drain()
    return copied


class _SpliceProtocol(asyncio.BufferedProtocol):
    """Installed on the source transport for one bounded body copy.

    The source socket reads into one buffer, reused for every chunk of
    this copy (one per protocol: a shared one would be shared by loops
    in other threads too), and :func:`vectored_write` forwards each chunk
    from it; bytes past the body boundary (keep-alive pipelining) are
    copied into ``overflow`` for the caller to push back into the
    source's ``StreamReader``.
    """

    def __init__(self, src_transport, dst_writer, nbytes: int) -> None:
        self._src = src_transport
        self._dst_writer = dst_writer
        self._dst = dst_writer.transport
        try:
            self._dst_high = self._dst.get_write_buffer_limits()[1]
        except (AttributeError, NotImplementedError):
            self._dst_high = WRITE_HIGH_WATER
        self._view = memoryview(bytearray(RELAY_CHUNK))
        self._remaining = nbytes
        self.copied = 0
        self.overflow = bytearray()
        self.saw_eof = False
        self.lost = False
        self.lost_exc: Optional[BaseException] = None
        self._loop = asyncio.get_running_loop()
        self.done: asyncio.Future = self._loop.create_future()
        self._drainer: Optional[asyncio.Task] = None

    # -- protocol callbacks -------------------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        data = self._view[:nbytes]
        take = 0 if self.done.done() else min(nbytes, self._remaining)
        if take < nbytes:
            self.overflow += data[take:]
        if not take:
            return
        if self._dst.is_closing():
            self._finish(ConnectionResetError("destination closed during splice"))
            return
        vectored_write(self._dst_writer, (data[:take],))
        self.copied += take
        self._remaining -= take
        if self._remaining == 0:
            self._finish(None)
        elif self._dst.get_write_buffer_size() > self._dst_high:
            # Destination backpressure: stop reading the source until the
            # destination's write buffer falls back under its low-water
            # mark (its FlowControlMixin wakes the drain below).
            self._src.pause_reading()
            self._drainer = self._loop.create_task(self._drain_destination())

    def eof_received(self) -> bool:
        self.saw_eof = True
        if self._remaining > 0:
            self._finish(
                asyncio.IncompleteReadError(partial=b"", expected=self._remaining)
            )
        else:
            self._finish(None)
        # Keep the transport open: the caller restores the stream
        # protocol and forwards the EOF to its reader.
        return True

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.lost = True
        self.lost_exc = exc
        if self._remaining > 0:
            self._finish(
                exc
                if exc is not None
                else asyncio.IncompleteReadError(
                    partial=b"", expected=self._remaining
                )
            )
        else:
            self._finish(None)

    # -- internals ----------------------------------------------------------

    def _finish(self, exc: Optional[BaseException]) -> None:
        if self.done.done():
            return
        if exc is None:
            self.done.set_result(self.copied)
        else:
            self.done.set_exception(exc)

    async def _drain_destination(self) -> None:
        try:
            await self._dst_writer.drain()
        except (ConnectionError, RuntimeError) as exc:
            self._finish(exc)
            return
        if not self.done.done():
            self._src.resume_reading()

    def detach(self) -> None:
        """Cancel any in-flight drain waiter (called on protocol restore)."""
        if self._drainer is not None and not self._drainer.done():
            self._drainer.cancel()
        self._drainer = None
        if not self.done.done():
            self.done.cancel()


async def splice_exactly(
    src_reader: asyncio.StreamReader,
    src_writer: asyncio.StreamWriter,
    dst_writer: asyncio.StreamWriter,
    nbytes: int,
    prefix: Optional[bytes] = None,
) -> int:
    """Copy exactly ``nbytes`` from the source connection to ``dst_writer``.

    ``prefix`` (a rendered message head) and the body bytes the head
    parse already pulled into the source ``StreamReader``'s buffer go out
    first, in one :func:`vectored_write` straight from that buffer; the
    remainder is relayed transport-to-transport via
    :class:`_SpliceProtocol`.  Falls back to the stream relay when either
    side lacks a real transport.  The caller owns the final ``drain()``
    of ``dst_writer``.
    """
    src_transport = _transport_of(src_writer)
    dst_transport = _transport_of(dst_writer)
    buffer = getattr(src_reader, "_buffer", None)
    if (
        src_transport is None
        or dst_transport is None
        or buffer is None
        or not hasattr(src_transport, "set_protocol")
    ):
        if prefix:
            dst_writer.write(prefix)
        if nbytes <= 0:
            return 0
        return await relay_exactly(src_reader, dst_writer, nbytes)

    # Phase 1: the prefix and the buffered body bytes, one write.
    take = min(len(buffer), max(nbytes, 0))
    if prefix or take:
        if destination_closing(dst_writer):
            raise ConnectionResetError("destination closed during splice")
        vectored_write(dst_writer, (prefix or b"", memoryview(buffer)[:take]))
        if take:
            del buffer[:take]
            src_reader._maybe_resume_transport()
    remaining = nbytes - take
    if remaining <= 0:
        return take
    if src_reader.at_eof() or src_transport.is_closing():
        raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
    if over_high_water(dst_writer):
        await dst_writer.drain()

    # Phase 2: transport-to-transport relay under flow control.
    original = src_transport.get_protocol()
    protocol = _SpliceProtocol(src_transport, dst_writer, remaining)
    src_transport.set_protocol(protocol)
    try:
        src_transport.resume_reading()
    except (AttributeError, RuntimeError):
        pass
    try:
        return take + await protocol.done
    finally:
        protocol.detach()
        src_transport.set_protocol(original)
        try:
            src_transport.resume_reading()
        except (AttributeError, RuntimeError):
            pass
        if protocol.overflow:
            src_reader.feed_data(bytes(protocol.overflow))
        if protocol.lost:
            # The stream protocol never saw the loss; forward it so
            # later reads fail fast instead of hanging.
            original.connection_lost(protocol.lost_exc)
        elif protocol.saw_eof:
            src_reader.feed_eof()
